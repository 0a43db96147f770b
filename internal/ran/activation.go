package ran

import "time"

// Secondary-carrier activation policy constants, calibrated to the
// dynamics of the paper's Figure 2 (secondary cell activated about 130 ms
// after a high-rate flow starts; deactivated a few hundred ms after load
// drops). EN-DC applies the same dynamics to the NR secondary cell group.
const (
	activateWindow  = 100 // subframes observed before activation
	activateFrac    = 0.8 // fraction of window that must show demand
	occupancyFrac   = 0.6 // user share of active-cell PRBs that signals demand
	backlogBits     = 12000
	activateHoldoff = 150 * time.Millisecond
	// DeactWindow is the subframes of served load behind the deactivation
	// decision; callers size the capacity they pass to ServedFits by it.
	DeactWindow  = 500
	deactFrac    = 0.6 // load must fit in this fraction of the remaining carriers
	deactHoldoff = 500 * time.Millisecond
)

// Activation is the network side's secondary-carrier (de)activation
// policy, sampled once per subframe: activate after sustained demand on
// the active carriers, deactivate once the served load of the last window
// would fit comfortably in the carriers that remain. One instance drives
// an LTE UE's carrier aggregation, another an EN-DC device's NR secondary
// cell group.
type Activation struct {
	demandRing []bool
	demandIdx  int
	demandFill int
	servedRing []int
	servedIdx  int
	servedFill int
	servedSum  int64
	lastChange time.Duration
}

// NewActivation returns a policy with empty observation windows.
func NewActivation() *Activation {
	return &Activation{
		demandRing: make([]bool, activateWindow),
		servedRing: make([]int, DeactWindow),
	}
}

// Sample records one subframe: the bits queued for the user and its PRB
// share on the carriers that signal demand, and the payload bits served.
func (a *Activation) Sample(queuedBits, userPRBs, totalPRBs, servedBits int) {
	a.demandRing[a.demandIdx] = queuedBits >= backlogBits ||
		float64(userPRBs) >= occupancyFrac*float64(totalPRBs)
	a.demandIdx = (a.demandIdx + 1) % len(a.demandRing)
	if a.demandFill < len(a.demandRing) {
		a.demandFill++
	}
	a.servedSum += int64(servedBits) - int64(a.servedRing[a.servedIdx])
	a.servedRing[a.servedIdx] = servedBits
	a.servedIdx = (a.servedIdx + 1) % len(a.servedRing)
	if a.servedFill < len(a.servedRing) {
		a.servedFill++
	}
}

// ActivationDue reports sustained demand over a full decision window,
// outside the hold-off after the last change.
func (a *Activation) ActivationDue(now time.Duration) bool {
	if a.demandFill < len(a.demandRing) || now-a.lastChange < activateHoldoff {
		return false
	}
	cnt := 0
	for _, d := range a.demandRing {
		if d {
			cnt++
		}
	}
	return float64(cnt) >= activateFrac*float64(len(a.demandRing))
}

// DeactivationDue reports a full served-load window outside the hold-off;
// the caller then tests ServedFits against the capacity that would remain.
func (a *Activation) DeactivationDue(now time.Duration) bool {
	return a.servedFill == len(a.servedRing) && now-a.lastChange >= deactHoldoff
}

// ServedFits reports whether the window's served load fits comfortably in
// windowCapBits, the remaining carriers' capacity over DeactWindow
// subframes.
func (a *Activation) ServedFits(windowCapBits float64) bool {
	return float64(a.servedSum) <= deactFrac*windowCapBits
}

// Changed restarts both observation windows and the hold-off after the
// active carrier set changed.
func (a *Activation) Changed(now time.Duration) {
	a.lastChange = now
	for i := range a.demandRing {
		a.demandRing[i] = false
	}
	a.demandFill = 0
	for i := range a.servedRing {
		a.servedRing[i] = 0
	}
	a.servedSum = 0
	a.servedFill = 0
}
