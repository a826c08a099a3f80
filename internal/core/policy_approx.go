package core

import (
	"sync"
	"time"
)

// DivergenceStats reports how far the approx policy's bounded-error
// failovers have diverged from exact recovery, against the configured
// budget. Exported through the metrics registry as
// subjob.<name>.divergence.*.
type DivergenceStats struct {
	Mode string `json:"mode"`
	// Budget echoes the configured bound.
	BudgetMaxLost int `json:"budget_max_lost_elements"`
	// Failovers counts all failovers the policy handled; BudgetedSkips of
	// them skipped the replay within budget, ExactReplays fell back to the
	// exact hybrid path (estimate over budget or standby never refreshed).
	Failovers     int `json:"failovers"`
	BudgetedSkips int `json:"budgeted_skips"`
	ExactReplays  int `json:"exact_replays"`
	// LostElements is the measured loss actually admitted across all
	// budgeted skips (upstream elements never replayed to the standby);
	// LastLostElements is the most recent failover's share.
	LostElements     int64 `json:"lost_elements_total"`
	LastLostElements int   `json:"last_lost_elements"`
	// StaleColdBytes is the cold remainder of the standby's state at the
	// last budgeted skip — bytes promoted as-is from an older snapshot
	// because no partial frame had touched them since.
	StaleColdBytes uint64 `json:"stale_cold_bytes"`
	// LastStalenessMS is the age of the standby's newest applied refresh
	// at the last failover.
	LastStalenessMS float64 `json:"last_staleness_ms"`
	// WithinBudget reports whether the measured loss of the last failover
	// stayed inside the budget (exact replays trivially do).
	WithinBudget bool `json:"within_budget"`
}

// ApproxPolicy is the bounded-error variant of the hybrid method: the
// sweeping checkpoint manager ships unchained partial frames carrying only
// the hot (recently written) byte ranges, and failover promotes the
// standby immediately from its last partial instead of draining the full
// delta chain — skipping the upstream replay entirely whenever the
// estimated loss fits the ErrorBudget. The divergence actually admitted
// (lost in-flight elements, stale cold-slot bytes) is measured and
// reported; a zero budget degenerates to exact hybrid behavior.
type ApproxPolicy struct {
	*HybridPolicy
	budget ErrorBudget

	mu  sync.Mutex
	div DivergenceStats
	// priDeactivated records that the last budgeted skip cut the stalled
	// primary off its upstream feeds. Exact hybrid can leave both copies
	// consuming — determinism assigns them identical output sequences, so
	// the duplicates collapse downstream — but after a skip the standby's
	// sequence space has diverged, and a double-processed element would
	// reach the sink under two different sequences. Restore re-activates
	// the feed once the primary has adopted the standby's state.
	priDeactivated bool
}

// NewApproxPolicy creates the bounded-error policy: the hybrid policy with
// its sweeping managers in partial mode unless the budget is zero. Partial
// frames patch a pre-deployed standby in place, so the NoPreDeploy ablation
// is forced off.
func NewApproxPolicy(o Options, b ErrorBudget) *ApproxPolicy {
	o.NoPreDeploy = false
	hp := NewHybridPolicy(o)
	hp.partial = !b.Zero()
	return &ApproxPolicy{
		HybridPolicy: hp,
		budget:       b,
		div: DivergenceStats{
			Mode:          "approx",
			BudgetMaxLost: b.MaxLostElements,
			WithinBudget:  true,
		},
	}
}

// Mode implements StandbyPolicy.
func (ap *ApproxPolicy) Mode() string { return "approx" }

// Restore implements StandbyPolicy: rollback is the hybrid read-state
// sequence — the primary adopts the standby's (approximate) live state,
// and the divergence admitted at failover simply persists. If the
// preceding budgeted skip deactivated the primary's upstream feeds, they
// are re-activated (with retransmission) now that the primary's input
// floor covers everything the standby consumed.
func (ap *ApproxPolicy) Restore(lc *Lifecycle, at time.Time) State {
	st := ap.HybridPolicy.Restore(lc, at)
	ap.mu.Lock()
	deact := ap.priDeactivated
	ap.priDeactivated = false
	ap.mu.Unlock()
	if deact {
		pri := lc.PrimaryRuntime()
		for _, up := range lc.cfg.Wiring.UpstreamOutputs() {
			up.Activate(pri.Node(), true)
		}
	}
	return st
}

// Promote implements StandbyPolicy: the hybrid promotion. The old primary
// is unsubscribed wholesale, so a deactivated feed needs no undoing.
func (ap *ApproxPolicy) Promote(lc *Lifecycle, at time.Time) State {
	ap.mu.Lock()
	ap.priDeactivated = false
	ap.mu.Unlock()
	return ap.HybridPolicy.Promote(lc, at)
}

// Failover implements StandbyPolicy. With a zero budget it is hybrid
// failover verbatim. Otherwise the standby — already holding its last
// partial refresh, output sequence fast-forwarded to match the primary's
// — is promoted without draining anything: when a checkpoint has refreshed
// the standby and the estimated replay backlog fits the budget, the
// upstream replay is skipped (each queue's dedup floor jumps past the
// retained backlog, admitting bounded loss); otherwise the exact hybrid
// replay runs instead.
func (ap *ApproxPolicy) Failover(lc *Lifecycle, detectedAt time.Time) State {
	if ap.budget.Zero() {
		return ap.HybridPolicy.Failover(lc, detectedAt)
	}

	sec := lc.SecondaryRuntime()
	secM := lc.StandbyMachine()

	// Estimate before resuming: the pending replay per upstream queue is
	// what activation would retransmit, and the standby store's last
	// refresh, measured for the stats, says how stale the promoted state is.
	ups := lc.cfg.Wiring.UpstreamOutputs()
	pending := 0
	for _, up := range ups {
		pending += up.PendingReplay(sec.Node())
	}
	staleness := time.Duration(0)
	refreshed := false
	if st := lc.StandbyStoreRef(); st != nil {
		if lr := st.lastRefresh(); !lr.IsZero() {
			staleness = lc.clk.Now().Sub(lr)
			refreshed = true
		}
	}
	// When nothing ever refreshed the standby, promoting it would replay
	// from zero state, so only the exact path is sound.
	within := refreshed && pending <= ap.budget.MaxLostElements

	secM.CPU().Execute(resumeCost)
	sec.Resume()

	lost := 0
	if within {
		// Cut the (possibly just slow) primary off its feeds first: once the
		// dedup floor jumps, the standby's sequence space diverges from the
		// primary's, and an element processed by both copies would no longer
		// collapse downstream.
		pri := lc.PrimaryRuntime()
		for _, up := range ups {
			up.Activate(pri.Node(), false)
		}
		for _, up := range ups {
			lost += up.ActivateSkipReplay(sec.Node())
		}
		// No output retransmission either: the standby's output queue was
		// fast-forwarded by the partial frames to the primary's sequence,
		// retains nothing, and downstream dedup floors already cover the
		// prefix the primary published.
	} else {
		for _, up := range ups {
			up.Activate(sec.Node(), true)
		}
		sec.Out().RetransmitAll()
	}

	var cold uint64
	if st := lc.StandbyStoreRef(); st != nil {
		_, _, cold = st.PartialStats()
	}

	ap.mu.Lock()
	ap.div.Failovers++
	ap.div.LastStalenessMS = float64(staleness) / 1e6
	if within {
		ap.priDeactivated = true
		ap.div.BudgetedSkips++
		ap.div.LostElements += int64(lost)
		ap.div.LastLostElements = lost
		ap.div.StaleColdBytes = cold
		// The decision used an estimate; elements published between the
		// estimate and the floor jump are admitted too, so report the
		// measured loss against the budget honestly.
		ap.div.WithinBudget = lost <= ap.budget.MaxLostElements
	} else {
		ap.div.ExactReplays++
		ap.div.LastLostElements = 0
		ap.div.WithinBudget = true
	}
	ap.mu.Unlock()

	lc.recordSwitch(SwitchEvent{DetectedAt: detectedAt, ReadyAt: lc.clk.Now()})
	return SwitchedOver
}

// Divergence returns the divergence admitted so far, against the budget;
// the pipeline exports it as a metrics source.
func (ap *ApproxPolicy) Divergence() DivergenceStats {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return ap.div
}
