package rtc

import (
	"pbecc/internal/cc"
	"pbecc/internal/netsim"
	"pbecc/internal/obs"
	"pbecc/internal/sim"
)

// SFU metrics: committed layer changes, and frames a leg spent waiting
// for the keyframe that lets a pending switch commit (a decoder cannot
// join a simulcast stream mid-GoP, so this gate is the switch latency).
var (
	mLayerSwitches = obs.NewCounter("sfu.layer_switches")
	mKeyframeGated = obs.NewCounter("sfu.keyframe_gated_frames")
)

// compile-time check: a Sender terminates the SFU's ack paths.
var _ netsim.Handler = (*Sender)(nil)

// SFU is a frame-level selective forwarding unit: one simulcast ingest
// stream fans out to many subscribers, each of which receives exactly one
// rate-ladder layer chosen from its own congestion controller's current
// rate — the architecture that lets one uplink serve a large call while
// every downlink adapts independently. Feed released ingest frames into
// OnFrame (typically as the ingest jitter buffer's release hook).
type SFU struct {
	eng  *sim.Engine
	spec MediaSpec
	subs []*Subscriber
}

// Subscriber is one fan-out leg: a media sender paced by its own
// controller, plus the layer-selection state.
type Subscriber struct {
	Send *Sender

	layer  int // layer currently forwarded
	target int // desired layer awaiting a keyframe to switch to
}

// Layer returns the layer currently forwarded to this subscriber.
func (s *Subscriber) Layer() int { return s.layer }

// NewSFU returns a relay for an ingest stream described by spec; every
// rung of DefaultLadder is a selectable layer.
func NewSFU(eng *sim.Engine, spec MediaSpec) *SFU {
	return &SFU{eng: eng, spec: spec}
}

// Spec returns the ingest media spec.
func (s *SFU) Spec() MediaSpec { return s.spec }

// LegSpec returns the spec a subscriber leg uses: the ingest spec minus
// simulcast, since each leg carries exactly one layer at a time.
func (s *SFU) LegSpec() MediaSpec {
	sp := s.spec
	sp.Simulcast = false
	return sp
}

// AddSubscriber registers one leg sending into out under ctrl. New
// subscribers start on the lowest layer and climb as their controller
// finds rate.
func (s *SFU) AddSubscriber(flowID int, out netsim.Handler, ctrl cc.Controller) *Subscriber {
	sub := &Subscriber{Send: NewSender(s.eng, flowID, out, ctrl, s.spec)}
	s.subs = append(s.subs, sub)
	return sub
}

// Start begins transmission on every leg.
func (s *SFU) Start() {
	for _, sub := range s.subs {
		sub.Send.Start()
	}
}

// Stop halts every leg.
func (s *SFU) Stop() {
	for _, sub := range s.subs {
		sub.Send.Stop()
	}
}

// OnFrame relays one ingest frame: each subscriber re-evaluates its
// desired layer against its transport's available rate, commits a
// pending switch at a keyframe tick (a decoder cannot join a simulcast
// stream mid-GoP), and receives the frame if it belongs to the
// subscriber's current layer. Because the simulcast GoPs are aligned and
// the rungs of one capture tick arrive lowest-first, committing on the
// first keyframe of the tick - before the target layer's copy passes -
// guarantees the leg's first frame on the new layer is that layer's
// keyframe and that no capture seq is ever forwarded twice.
func (s *SFU) OnFrame(f Frame) {
	for _, sub := range s.subs {
		sub.target = layerFor(sub.Send.AvailableRate())
		if sub.target != sub.layer {
			if f.Keyframe {
				sub.layer = sub.target
				mLayerSwitches.Inc()
			} else if f.Layer == sub.layer {
				mKeyframeGated.Inc()
			}
		}
		if f.Layer == sub.layer {
			sub.Send.QueueFrame(f)
		}
	}
}
