// Package rtc is the frame-level real-time media subsystem: the workload
// class the paper's headline latency claim is about. It models a video
// encoder with GoP structure and a simulcast rate ladder, a
// packetizer/pacer that ships frames through any cc.Controller, a
// receiver-side jitter buffer that reassembles frames in strict order and
// records per-frame deadline metrics, and an SFU-style fan-out relay that
// serves one ingest stream to many subscribers with per-subscriber layer
// selection. Congestion control plugs in through the cc.Controller
// interface, so PBE-CC, the GCC baseline and the bulk-transfer schemes
// can all carry the same call and be compared on frame-level QoE.
package rtc

import (
	"time"

	"pbecc/internal/sim"
)

// Frame is one encoded video frame as handed from encoder to transport
// and from jitter buffer to decoder.
type Frame struct {
	Seq        uint64 // capture-tick index, shared across simulcast layers
	Layer      int    // rate-ladder layer the frame was encoded at
	Bytes      int
	Keyframe   bool
	CapturedAt time.Duration
}

// DefaultLadder is the ascending encoder rate ladder in bits per second, a
// conventional WebRTC-style spread from audio-grade video to full HD. The
// adaptive encoder moves along it; a simulcast encoder produces every rung.
var DefaultLadder = []float64{300e3, 1e6, 2.5e6, 5e6, 8e6}

// Every media stream shares one shape: an interactive-grade call.
const (
	fps = 30 // frames per second
	gop = 30 // frames per group-of-pictures: one keyframe per second

	// keyframeBoost is the keyframe size relative to the GoP's average
	// frame. Delta frames shrink so the GoP hits the target rate on
	// average.
	keyframeBoost = 4

	// headroom is the fraction of the transport's offered rate the
	// encoder (or the SFU's layer selector) dares to use.
	headroom = 0.85

	// deadline is the per-frame play deadline measured from capture; a
	// frame released later counts as past-deadline.
	deadline = 200 * time.Millisecond

	// maxQueueDelay bounds how long a frame may wait in the sender queue
	// before the pacer drops it instead of building latency.
	maxQueueDelay = 400 * time.Millisecond

	// frameInterval is the capture period.
	frameInterval = time.Second / fps
)

// MediaSpec describes one media stream.
type MediaSpec struct {
	// Simulcast makes the encoder produce every ladder rung each tick
	// (the SFU ingest configuration) instead of adapting a single stream.
	Simulcast bool
}

// layerFor returns the highest ladder index whose rate fits within
// headroom times the available rate (the lowest rung when nothing fits).
func layerFor(availableBps float64) int {
	layer := 0
	for i, r := range DefaultLadder {
		if r <= headroom*availableBps {
			layer = i
		}
	}
	return layer
}

// Encoder is the frame-pattern traffic source: it ticks at the frame
// rate and produces frames with GoP structure (a keyframe burst opening
// every group). In adaptive mode it re-reads Available each tick and
// moves along the rate ladder, forcing a keyframe on every layer change
// (a decoder cannot switch streams mid-GoP); in simulcast mode it
// produces every rung with aligned GoPs and leaves selection to the SFU.
type Encoder struct {
	eng  *sim.Engine
	spec MediaSpec
	sink func(Frame)

	// Available supplies the transport rate the encoder may use in
	// bits/sec (typically the congestion controller's pacing rate);
	// nil pins the encoder to the top rung.
	Available func() float64

	seq    uint64
	layer  int
	gopIdx int
	ticker *sim.Ticker
}

// NewEncoder returns a stopped encoder delivering frames to sink; call
// Start.
func NewEncoder(eng *sim.Engine, spec MediaSpec, sink func(Frame)) *Encoder {
	return &Encoder{eng: eng, spec: spec, sink: sink}
}

// Layer returns the current adaptive layer.
func (e *Encoder) Layer() int { return e.layer }

// Start begins producing frames, the first immediately.
func (e *Encoder) Start() {
	if e.ticker != nil {
		return
	}
	e.tick()
	e.ticker = e.eng.Every(frameInterval, e.tick)
}

// Stop halts the encoder; it can be restarted.
func (e *Encoder) Stop() {
	if e.ticker != nil {
		e.ticker.Stop()
		e.ticker = nil
	}
}

func (e *Encoder) tick() {
	now := e.eng.Now()
	seq := e.seq
	e.seq++
	if e.spec.Simulcast {
		key := e.gopIdx == 0
		for layer := range DefaultLadder {
			e.emit(now, seq, layer, key)
		}
		e.advanceGoP()
		return
	}
	if e.Available != nil {
		if want := layerFor(e.Available()); want != e.layer {
			e.layer = want
			e.gopIdx = 0 // layer switch requires a fresh keyframe
		}
	} else {
		e.layer = len(DefaultLadder) - 1
	}
	e.emit(now, seq, e.layer, e.gopIdx == 0)
	e.advanceGoP()
}

func (e *Encoder) advanceGoP() {
	e.gopIdx++
	if e.gopIdx >= gop {
		e.gopIdx = 0
	}
}

// emit produces one frame at the layer's ladder rate: the keyframe gets
// keyframeBoost times the GoP-average size, delta frames shrink to keep
// the long-run rate on target.
func (e *Encoder) emit(now time.Duration, seq uint64, layer int, key bool) {
	avg := DefaultLadder[layer] / fps / 8 // bytes/frame
	var bytes float64
	if key {
		bytes = keyframeBoost * avg
	} else {
		bytes = avg * (gop - keyframeBoost) / (gop - 1)
	}
	if bytes < 1 {
		bytes = 1
	}
	e.sink(Frame{
		Seq:        seq,
		Layer:      layer,
		Bytes:      int(bytes),
		Keyframe:   key,
		CapturedAt: now,
	})
}
