// Package ha assembles the five high-availability modes — NONE, active
// standby, passive standby, hybrid (the four the paper evaluates) and
// approx (bounded-error hybrid) — and the pipeline builder that deploys a
// chain job across cluster machines with a per-subjob mode choice
// (Section V-A: each subjob in the same job can use a different HA mode).
// Every mode is a core.StandbyPolicy plugged into the shared
// core.Lifecycle state machine; this package only picks the policy and
// wires the job.
package ha

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"streamha/internal/core"
)

// Mode selects a subjob's high-availability scheme.
type Mode int

// The four HA modes of the paper's evaluation.
const (
	// ModeNone deploys a single copy; failures are endured.
	ModeNone Mode = iota
	// ModeActive runs two copies concurrently (active standby): roughly
	// four times the traffic, near-zero recovery delay.
	ModeActive
	// ModePassive checkpoints a primary to a secondary machine and deploys
	// a recovery copy on demand after three heartbeat misses.
	ModePassive
	// ModeHybrid pre-deploys a suspended secondary refreshed in memory and
	// switches to active standby on the first heartbeat miss (the paper's
	// contribution; implemented in internal/core).
	ModeHybrid
	// ModeApprox is hybrid with bounded-error recovery: checkpoints ship
	// only the hot state slots as unchained partial frames, and failover
	// promotes the standby immediately, skipping the upstream replay when
	// the estimated loss fits a configured error budget. Spelled
	// "approx:<max-lost-elements>" wherever mode names are parsed.
	ModeApprox
)

// allModes registers every mode's canonical name; String, ParseMode and
// Modes derive from it, so a new policy registered here is automatically
// parseable and listed.
var allModes = [...]struct {
	mode Mode
	name string
}{
	{ModeNone, "none"},
	{ModeActive, "active"},
	{ModePassive, "passive"},
	{ModeHybrid, "hybrid"},
	{ModeApprox, "approx"},
}

func (m Mode) String() string {
	for _, e := range allModes {
		if e.mode == m {
			return e.name
		}
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Modes returns the valid mode names, sorted, for CLI flag validation and
// help text.
func Modes() []string {
	names := make([]string, len(allModes))
	for i, e := range allModes {
		names[i] = e.name
	}
	sort.Strings(names)
	return names
}

// ParseMode converts a mode name to a Mode. The approx mode carries its
// error budget in the name ("approx:<max-lost-elements>", budget > 0);
// ParseMode validates it and discards the value — use ParseModeBudget to
// keep it. The error for an unknown name lists the valid names,
// deterministically ordered.
func ParseMode(s string) (Mode, error) {
	m, _, err := ParseModeBudget(s)
	return m, err
}

// ParseModeBudget converts a mode name to a Mode plus, for approx, the
// error budget spelled in it ("approx:<max-lost-elements>"). The budget
// must be a positive integer: a bare "approx", a zero or negative budget,
// or a malformed one is rejected with a deterministic error (a zero
// budget is expressible only programmatically, via core.ErrorBudget, where
// it degenerates to exact hybrid behavior). Other modes return a zero
// budget.
func ParseModeBudget(s string) (Mode, core.ErrorBudget, error) {
	if spec, ok := strings.CutPrefix(s, "approx:"); ok {
		n, err := strconv.Atoi(spec)
		if err != nil || n <= 0 {
			return ModeNone, core.ErrorBudget{},
				fmt.Errorf("ha: approx error budget must be a positive element count, got %q", spec)
		}
		return ModeApprox, core.ErrorBudget{MaxLostElements: n}, nil
	}
	if s == "approx" {
		return ModeNone, core.ErrorBudget{},
			fmt.Errorf("ha: mode approx requires an error budget (use approx:<max-lost-elements>)")
	}
	for _, e := range allModes {
		if e.name == s {
			return e.mode, core.ErrorBudget{}, nil
		}
	}
	return ModeNone, core.ErrorBudget{},
		fmt.Errorf("ha: unknown mode %q (valid: %s)", s, strings.Join(Modes(), ", "))
}

// PSOptions tunes conventional passive standby. It is an alias of the
// core package's options type; the policy itself lives in core.
type PSOptions = core.PassiveOptions

// policyFor maps a subjob's Mode to its StandbyPolicy — the one residual
// mode dispatch in the package; everything downstream of it is uniform.
// approx is the error budget applied when m is ModeApprox (a zero budget
// degenerates the policy to exact hybrid behavior).
func policyFor(m Mode, hybrid core.Options, ps PSOptions, approx core.ErrorBudget, ackInterval time.Duration) core.StandbyPolicy {
	switch m {
	case ModeActive:
		return core.NewActivePolicy(ackInterval)
	case ModePassive:
		return core.NewPassivePolicy(ps)
	case ModeHybrid:
		return core.NewHybridPolicy(hybrid)
	case ModeApprox:
		return core.NewApproxPolicy(hybrid, approx)
	default:
		return core.NewNonePolicy(ackInterval)
	}
}
