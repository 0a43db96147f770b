package gcc

import "time"

// burstInterval groups packets sent within 5 ms of each other into one
// arrival group: WebRTC's inter-arrival filter compares groups rather than
// individual packets so that sender-side pacing bursts do not read as
// queue growth.
const burstInterval = 5 * time.Millisecond

// arrivalGroup is one burst of packets, identified by its send-time span.
type arrivalGroup struct {
	firstSend   time.Duration
	lastSend    time.Duration
	lastArrival time.Duration
	bytes       int
}

// interArrival turns per-packet (send, arrival) timestamp pairs into
// inter-group delay-variation samples
// d(i) = (a_i - a_{i-1}) - (s_i - s_{i-1}): positive when the path delayed
// group i more than group i-1, the raw congestion signal of the GCC
// arrival-time filter.
type interArrival struct {
	cur, prev arrivalGroup
}

// add folds one packet in. When the packet opens a new group and a
// previous complete group exists, it returns that pair's send and arrival
// deltas with ok=true.
func (ia *interArrival) add(send, arrival time.Duration, bytes int) (sendDelta, arrivalDelta time.Duration, ok bool) {
	if ia.cur.bytes == 0 {
		ia.cur = arrivalGroup{firstSend: send, lastSend: send, lastArrival: arrival, bytes: bytes}
		return 0, 0, false
	}
	if send < ia.cur.firstSend {
		// Out-of-order within the current burst: ignore.
		return 0, 0, false
	}
	if send-ia.cur.firstSend <= burstInterval {
		if send > ia.cur.lastSend {
			ia.cur.lastSend = send
		}
		ia.cur.lastArrival = arrival
		ia.cur.bytes += bytes
		return 0, 0, false
	}
	if ia.prev.bytes > 0 {
		sendDelta = ia.cur.lastSend - ia.prev.lastSend
		arrivalDelta = ia.cur.lastArrival - ia.prev.lastArrival
		ok = true
	}
	ia.prev = ia.cur
	ia.cur = arrivalGroup{firstSend: send, lastSend: send, lastArrival: arrival, bytes: bytes}
	return sendDelta, arrivalDelta, ok
}

// trendlineWindow is how many delay-variation samples the slope fit spans.
const trendlineWindow = 20

// trendlineSmoothing is the EWMA coefficient applied to the accumulated
// delay before fitting.
const trendlineSmoothing = 0.9

// trendline estimates the slope of the one-way queuing delay over the last
// trendlineWindow arrival groups by least squares, WebRTC's replacement
// for the original Kalman overuse estimator: a sustained positive slope
// means the bottleneck queue is filling.
type trendline struct {
	numDeltas     int
	accumDelayMs  float64
	smoothedDelay float64
	// The retained samples, oldest first: times[:n] are group arrival
	// times (ms) and delays[:n] the smoothed accumulated delays (ms).
	times, delays [trendlineWindow]float64
	n             int
	firstArrival  time.Duration
	haveFirst     bool
}

// update folds one inter-group delay-variation sample in and returns the
// current slope estimate in ms of delay per ms of time.
func (t *trendline) update(arrival time.Duration, deltaMs float64) float64 {
	if !t.haveFirst {
		t.firstArrival = arrival
		t.haveFirst = true
	}
	t.numDeltas++
	t.accumDelayMs += deltaMs
	if t.numDeltas == 1 {
		t.smoothedDelay = t.accumDelayMs
	} else {
		t.smoothedDelay = trendlineSmoothing*t.smoothedDelay + (1-trendlineSmoothing)*t.accumDelayMs
	}
	if t.n == trendlineWindow {
		// Drop the oldest sample in place: the arrays keep their oldest-to-
		// newest order, which the slope sums depend on.
		copy(t.times[:], t.times[1:])
		copy(t.delays[:], t.delays[1:])
		t.n--
	}
	t.times[t.n] = float64((arrival - t.firstArrival).Microseconds()) / 1000
	t.delays[t.n] = t.smoothedDelay
	t.n++
	return t.slope()
}

// slope is the least-squares fit over the retained samples (0 until two
// samples exist).
func (t *trendline) slope() float64 {
	n := t.n
	if n < 2 {
		return 0
	}
	var sumT, sumD float64
	for i := 0; i < n; i++ {
		sumT += t.times[i]
		sumD += t.delays[i]
	}
	meanT, meanD := sumT/float64(n), sumD/float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		num += (t.times[i] - meanT) * (t.delays[i] - meanD)
		den += (t.times[i] - meanT) * (t.times[i] - meanT)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// usage is the overuse detector's hypothesis about the bottleneck queue.
type usage int

const (
	usageNormal usage = iota
	usageOver
	usageUnder
)

// Detector thresholds (ms) and adaptation gains, from the WebRTC
// implementation: the threshold tracks the modified trend so that a
// concurrent loss-based flow cannot starve the delay-based estimator
// (Carlucci et al., MMSys 2016 §4).
const (
	thresholdGain    = 4.0
	initialThreshold = 12.5
	minThreshold     = 6.0
	maxThreshold     = 600.0
	thresholdKUp     = 0.0087
	thresholdKDown   = 0.039
	maxAdaptOffsetMs = 15.0
	maxNumDeltas     = 60
	// overusingTime is how long the modified trend must stay above the
	// threshold before the detector commits to the overuse hypothesis.
	overusingTime = 10 * time.Millisecond
)

// detector turns trendline slopes into the three-state overuse signal with
// an adaptive threshold.
type detector struct {
	threshold   float64
	state       usage
	overTime    time.Duration
	overCount   int
	prevTrend   float64
	lastUpdate  time.Duration
	haveUpdated bool
}

func newDetector() *detector {
	return &detector{threshold: initialThreshold}
}

// detect classifies one slope sample. sendDelta is the time between the
// two groups the sample spans, used to accumulate the sustained-overuse
// timer.
func (d *detector) detect(trend float64, sendDelta time.Duration, numDeltas int, now time.Duration) usage {
	if numDeltas < 2 {
		return usageNormal
	}
	scale := float64(numDeltas)
	if scale > maxNumDeltas {
		scale = maxNumDeltas
	}
	modified := scale * trend * thresholdGain
	switch {
	case modified > d.threshold:
		if d.overTime == 0 && d.overCount == 0 {
			d.overTime = sendDelta / 2
		} else {
			d.overTime += sendDelta
		}
		d.overCount++
		if d.overTime > overusingTime && d.overCount > 1 && trend >= d.prevTrend {
			d.overTime = 0
			d.overCount = 0
			d.state = usageOver
		}
	case modified < -d.threshold:
		d.overTime = 0
		d.overCount = 0
		d.state = usageUnder
	default:
		d.overTime = 0
		d.overCount = 0
		d.state = usageNormal
	}
	d.prevTrend = trend
	d.adaptThreshold(modified, now)
	return d.state
}

// adaptThreshold moves the threshold toward |modified| quickly when the
// signal is below it and slowly when above, clamped to sane bounds.
func (d *detector) adaptThreshold(modified float64, now time.Duration) {
	if !d.haveUpdated {
		d.lastUpdate = now
		d.haveUpdated = true
	}
	abs := modified
	if abs < 0 {
		abs = -abs
	}
	if abs > d.threshold+maxAdaptOffsetMs {
		// A single spike (route change, handover) must not blow the
		// threshold up.
		d.lastUpdate = now
		return
	}
	k := thresholdKUp
	if abs < d.threshold {
		k = thresholdKDown
	}
	dtMs := float64((now - d.lastUpdate).Microseconds()) / 1000
	if dtMs > 100 {
		dtMs = 100
	}
	d.threshold += k * (abs - d.threshold) * dtMs
	if d.threshold < minThreshold {
		d.threshold = minThreshold
	}
	if d.threshold > maxThreshold {
		d.threshold = maxThreshold
	}
	d.lastUpdate = now
}
