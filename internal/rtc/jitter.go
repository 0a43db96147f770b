package rtc

import (
	"time"

	"pbecc/internal/netsim"
	"pbecc/internal/obs"
	"pbecc/internal/sim"
	"pbecc/internal/stats"
)

// Frame-level virtual-time series (40 ms windows; tid = flow ID):
// capture-to-release delay of released frames (ms), and freeze onsets -
// each sample is one stall's length beyond the 1.5-frame-interval
// allowance (ms), so a window's Count is its number of freeze onsets.
var (
	seriesFrameDelay = obs.Series("rtc.frame_delay")
	seriesFreeze     = obs.Series("rtc.freeze")
)

// skipWait is how long the jitter buffer waits for an incomplete frame
// once a newer frame is ready before giving up on the gap and moving on.
const skipWait = 100 * time.Millisecond

// FrameStats are the per-flow frame-level QoE metrics the rtc scenario
// family reports: the numbers an interactive application actually feels,
// as opposed to bulk throughput.
type FrameStats struct {
	Released     uint64 // frames delivered to the decoder, in order
	Skipped      uint64 // frames abandoned (lost or hopelessly late)
	PastDeadline uint64 // released, but after the play deadline
	SenderDrop   uint64 // shed by the sender pacer before transmission

	// FreezeTime accumulates display stall: any gap between consecutive
	// releases beyond 1.5 frame intervals counts as frozen video.
	FreezeTime time.Duration

	// Delay is the capture-to-release latency of every released frame.
	Delay stats.DurationSeries
}

// LatePct is the percentage of frames that missed their deadline or never
// played at all. A flow that played nothing missed everything: reporting
// 0 would make total collapse indistinguishable from perfection in the
// sweep's regression gate.
func (fs *FrameStats) LatePct() float64 {
	total := fs.Released + fs.Skipped
	if total == 0 {
		return 100
	}
	return 100 * float64(fs.PastDeadline+fs.Skipped) / float64(total)
}

// JitterBuffer reassembles media packets into frames and releases frames
// strictly in capture order: frame n+1 never plays before frame n. A gap
// (frame lost in flight or shed by the sender) blocks playout until a
// newer frame has been complete for skipWait, at which point the missing
// frames are abandoned and playout resumes — mirroring how a video
// decoder must wait for, then give up on, missing references.
type JitterBuffer struct {
	eng *sim.Engine

	next    uint64 // next frame seq to release
	started bool
	pending map[uint64]*pendingFrame
	spare   []*pendingFrame // released or abandoned frames, seen maps cleared on reuse

	lastRelease time.Duration

	// OnFrame, when set, observes every released frame with its
	// capture-to-release delay.
	OnFrame func(f Frame, delay time.Duration)

	// Series tracks (EnableSeries); nil when the run records no series.
	delayTrack, freezeTrack *obs.SeriesTrack

	stats FrameStats
}

type pendingFrame struct {
	frame    Frame
	got      int
	seen     map[int]bool // packet offsets received, so duplicates cannot complete a frame
	complete bool
}

// NewJitterBuffer returns a buffer for one media flow.
func NewJitterBuffer(eng *sim.Engine) *JitterBuffer {
	return &JitterBuffer{eng: eng, pending: map[uint64]*pendingFrame{}}
}

// Stats exposes the accumulated frame metrics.
func (jb *JitterBuffer) Stats() *FrameStats { return &jb.stats }

// EnableSeries downsamples the buffer's frame delay and freeze onsets
// into the run's series under flow tid. Simulcast layers of one flow
// share the (signal, tid) tracks. A no-op when the run records no series.
func (jb *JitterBuffer) EnableSeries(tid int) {
	if sb := jb.eng.SeriesBuffer(); sb != nil {
		jb.delayTrack = sb.Track(seriesFrameDelay, tid)
		jb.freezeTrack = sb.Track(seriesFreeze, tid)
	}
}

// Add folds one received media packet in, releasing any frames that
// become playable.
func (jb *JitterBuffer) Add(now time.Duration, p *netsim.Packet) {
	m := p.Media
	if m.FrameBytes == 0 {
		return // not a media packet
	}
	if jb.started && m.FrameSeq < jb.next {
		return // packet of an already released or abandoned frame
	}
	if !jb.started {
		// First packet pins the playout origin: everything older than the
		// first frame seen was never sent to us.
		jb.next = m.FrameSeq
		jb.started = true
	}
	pf := jb.pending[m.FrameSeq]
	if pf == nil {
		pf = jb.newFrame()
		pf.frame = Frame{
			Seq:        m.FrameSeq,
			Layer:      int(m.Layer),
			Bytes:      m.FrameBytes,
			Keyframe:   m.Keyframe,
			CapturedAt: m.CapturedAt,
		}
		jb.pending[m.FrameSeq] = pf
	}
	if pf.complete || pf.seen[m.Offset] {
		return
	}
	pf.seen[m.Offset] = true
	pf.got += p.Size
	if pf.got < m.FrameBytes {
		return
	}
	pf.complete = true
	seq := pf.frame.Seq
	jb.releaseReady(now) // may recycle pf
	if jb.pending[seq] != nil && seq > jb.next {
		// This frame is ready but an older gap blocks it: give the gap
		// skipWait to fill, then abandon it.
		jb.eng.Schedule(skipWait, func() { jb.skipTo(seq) })
	}
}

// newFrame returns an empty pending frame, recycled from the spare list
// when one is there: steady-state playout allocates nothing per frame.
func (jb *JitterBuffer) newFrame() *pendingFrame {
	n := len(jb.spare)
	if n == 0 {
		return &pendingFrame{seen: map[int]bool{}}
	}
	pf := jb.spare[n-1]
	jb.spare = jb.spare[:n-1]
	clear(pf.seen)
	*pf = pendingFrame{seen: pf.seen}
	return pf
}

// drop removes frame seq from the pending set and keeps its storage.
func (jb *JitterBuffer) drop(seq uint64) {
	if pf := jb.pending[seq]; pf != nil {
		delete(jb.pending, seq)
		jb.spare = append(jb.spare, pf)
	}
}

// releaseReady plays every consecutive complete frame starting at next.
func (jb *JitterBuffer) releaseReady(now time.Duration) {
	for {
		pf := jb.pending[jb.next]
		if pf == nil || !pf.complete {
			return
		}
		jb.release(now, pf)
	}
}

func (jb *JitterBuffer) release(now time.Duration, pf *pendingFrame) {
	delay := now - pf.frame.CapturedAt
	jb.stats.Released++
	jb.stats.Delay.AddDuration(delay)
	if delay > deadline {
		jb.stats.PastDeadline++
	}
	jb.delayTrack.Sample(now, float64(delay.Microseconds())/1000)
	if jb.stats.Released > 1 {
		if gap, allowed := now-jb.lastRelease, 3*frameInterval/2; gap > allowed {
			jb.stats.FreezeTime += gap - allowed
			jb.freezeTrack.Sample(now, float64((gap-allowed).Microseconds())/1000)
		}
	}
	jb.lastRelease = now
	f := pf.frame
	jb.drop(f.Seq)
	jb.next = f.Seq + 1
	if jb.OnFrame != nil {
		jb.OnFrame(f, delay)
	}
}

// skipTo abandons the frames blocking seq (releasing any complete ones on
// the way — order is still preserved) so playout can resume at seq.
func (jb *JitterBuffer) skipTo(seq uint64) {
	if jb.next > seq {
		return // the gap filled in time
	}
	if pf := jb.pending[seq]; pf == nil || !pf.complete {
		return // the trigger frame itself has been abandoned meanwhile
	}
	now := jb.eng.Now()
	for jb.next < seq {
		if pf := jb.pending[jb.next]; pf != nil && pf.complete {
			jb.release(now, pf)
			continue
		}
		jb.drop(jb.next)
		jb.stats.Skipped++
		jb.next++
	}
	jb.releaseReady(now)
}
