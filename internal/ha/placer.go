package ha

import (
	"errors"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/machine"
	"streamha/internal/sched"
)

// schedPlacer adapts the cluster scheduler to core.Placer, the lifecycle's
// re-arm interface. Anti-affinity is enforced here: a standby request
// always avoids the primary's machine and its entire fault domain, so a
// correlated failure of one domain never takes both copies. All errors
// collapse to nil — the lifecycle treats "no placement" uniformly, and
// the scheduler's denial counter keeps the reason observable.
type schedPlacer struct {
	cl *cluster.Cluster
	s  *sched.Scheduler
}

// newSchedPlacer returns the placer for s, or nil without a scheduler.
func newSchedPlacer(cl *cluster.Cluster, s *sched.Scheduler) core.Placer {
	if s == nil {
		return nil
	}
	return &schedPlacer{cl: cl, s: s}
}

// place resolves one request and maps the chosen name back to a machine.
func (p *schedPlacer) place(req sched.Request) *machine.Machine {
	id, err := p.s.Place(req)
	if err != nil {
		return nil
	}
	return p.cl.Machine(id)
}

// avoidReq builds a request that avoids m and m's whole fault domain.
func (p *schedPlacer) avoidReq(subjob string, role sched.Role, m *machine.Machine) sched.Request {
	req := sched.Request{Subjob: subjob, Role: role}
	if m != nil {
		id := string(m.ID())
		req.AvoidMachines = []string{id}
		if d := p.cl.Domain(id); d != "" {
			req.AvoidDomains = []string{d}
		}
	}
	return req
}

// PlaceStandby implements core.Placer.
func (p *schedPlacer) PlaceStandby(subjob string, primaryOn *machine.Machine) *machine.Machine {
	return p.place(p.avoidReq(subjob, sched.RoleStandby, primaryOn))
}

// PlacePrimary implements core.Placer.
func (p *schedPlacer) PlacePrimary(subjob string, avoid *machine.Machine) *machine.Machine {
	return p.place(p.avoidReq(subjob, sched.RolePrimary, avoid))
}

// NotePrimary implements core.Placer: after a promotion the primary runs
// on the former standby's machine; the log follows reality. A machine
// outside the schedulable pool (statically placed) is simply not tracked.
func (p *schedPlacer) NotePrimary(subjob string, m *machine.Machine) {
	if m == nil {
		return
	}
	if err := p.s.Assign(subjob, sched.RolePrimary, string(m.ID())); err != nil &&
		!errors.Is(err, sched.ErrUnknownMember) {
		return
	}
}

// Release implements core.Placer.
func (p *schedPlacer) Release(subjob string) {
	_ = p.s.ReleaseJob(subjob)
}
