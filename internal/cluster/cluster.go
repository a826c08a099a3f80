// Package cluster assembles simulated machines, sources and sinks into a
// testbed, mirroring the paper's experimental environment: a set of
// machines on a LAN, a stream source feeding a chain of subjobs, and a
// sink measuring end-to-end delay.
package cluster

import (
	"fmt"
	"time"

	"streamha/internal/clock"
	"streamha/internal/detect"
	"streamha/internal/machine"
	"streamha/internal/sched"
	"streamha/internal/transport"
)

// Config configures a cluster.
type Config struct {
	// Latency is the one-way network latency between machines (the paper's
	// testbed is a 1 Gbps LAN; 200 µs is the default here).
	Latency time.Duration
}

// Cluster owns the network and machines of one experiment.
type Cluster struct {
	cfg        Config
	clk        clock.Clock
	net        *transport.Mem
	machines   map[string]*machine.Machine
	responders map[string]*detect.Responder
	domains    map[string]string

	// Scheduler binding: machines added after BindScheduler are admitted
	// as schedulable members with schedCap slots, and crash/recover/remove
	// events are forwarded as membership changes.
	sched    *sched.Scheduler
	schedCap int
	members  map[string]bool
}

// New creates an empty cluster.
func New(cfg Config) *Cluster {
	if cfg.Latency == 0 {
		cfg.Latency = 200 * time.Microsecond
	}
	clk := clock.New()
	return &Cluster{
		cfg:        cfg,
		clk:        clk,
		net:        transport.NewMem(transport.MemConfig{Clock: clk, Latency: cfg.Latency}),
		machines:   make(map[string]*machine.Machine),
		responders: make(map[string]*detect.Responder),
		domains:    make(map[string]string),
		members:    make(map[string]bool),
	}
}

// Clock returns the cluster's time source, the wall clock.
func (c *Cluster) Clock() clock.Clock { return c.clk }

// Network returns the cluster's network, for traffic statistics.
func (c *Cluster) Network() *transport.Mem { return c.net }

// addMachine registers a machine named id with a heartbeat responder, in a
// fault domain of its own (anti-affinity then degenerates to "different
// machine").
func (c *Cluster) addMachine(id string) (*machine.Machine, error) {
	return c.AddMachineIn(id, id)
}

// AddMachineIn is addMachine with an explicit fault-domain label (a rack,
// a power feed — whatever fails together). If a scheduler is bound, the
// machine is admitted as a schedulable member.
func (c *Cluster) AddMachineIn(id, domain string) (*machine.Machine, error) {
	if _, ok := c.machines[id]; ok {
		return nil, fmt.Errorf("cluster: machine %q exists", id)
	}
	m, err := machine.New(id, c.clk, c.net)
	if err != nil {
		return nil, err
	}
	if domain == "" {
		domain = id
	}
	c.machines[id] = m
	c.domains[id] = domain
	c.responders[id] = detect.NewResponder(m, detect.DefaultReplyCost)
	if c.sched != nil {
		if err := c.sched.MemberUp(id, domain, c.schedCap); err != nil {
			return nil, fmt.Errorf("cluster: admitting %q: %w", id, err)
		}
		c.members[id] = true
	}
	return m, nil
}

// MustAddMachine is addMachine panicking on error, for experiment setup.
func (c *Cluster) MustAddMachine(id string) *machine.Machine {
	m, err := c.addMachine(id)
	if err != nil {
		panic(err)
	}
	return m
}

// MustAddMachineIn is AddMachineIn panicking on error.
func (c *Cluster) MustAddMachineIn(id, domain string) *machine.Machine {
	m, err := c.AddMachineIn(id, domain)
	if err != nil {
		panic(err)
	}
	return m
}

// Machine returns the machine named id, or nil.
func (c *Cluster) Machine(id string) *machine.Machine { return c.machines[id] }

// Domain returns the fault-domain label of machine id ("" if unknown).
func (c *Cluster) Domain(id string) string { return c.domains[id] }

// BindScheduler attaches a placement scheduler: every machine added from
// now on is admitted as a schedulable member with capacity subjob-copy
// slots, and CrashMachine/RecoverMachine/RemoveMachine forward membership
// changes. Machines that already exist (sources, sinks, the scheduler's
// own replica hosts) stay outside the schedulable pool.
func (c *Cluster) BindScheduler(s *sched.Scheduler, capacity int) {
	c.sched = s
	c.schedCap = capacity
}

// RemoveMachine deregisters machine id: its heartbeat responder is closed,
// its endpoint released (freeing the id for reuse), and — when it is a
// schedulable member — the scheduler records it down. The caller must have
// stopped or migrated hosted components first.
func (c *Cluster) RemoveMachine(id string) error {
	m, ok := c.machines[id]
	if !ok {
		return fmt.Errorf("cluster: machine %q unknown", id)
	}
	if r := c.responders[id]; r != nil {
		r.Close()
	}
	delete(c.responders, id)
	delete(c.machines, id)
	delete(c.domains, id)
	if c.sched != nil && c.members[id] {
		delete(c.members, id)
		if err := c.sched.MemberDown(id); err != nil {
			return err
		}
	}
	return m.Close()
}

// CrashMachine fail-stops machine id and, when it is a schedulable member,
// records it down in the placement log so its slots free up. Failure
// traces go through here so repeated-failure scenarios exercise the
// scheduler's membership path.
func (c *Cluster) CrashMachine(id string) error {
	m, ok := c.machines[id]
	if !ok {
		return fmt.Errorf("cluster: machine %q unknown", id)
	}
	m.Crash()
	if c.sched != nil && c.members[id] {
		return c.sched.MemberDown(id)
	}
	return nil
}

// RecoverMachine restarts a crashed machine with empty state, re-creates
// its heartbeat responder (the restart wiped the old handler), and
// re-admits it to the schedulable pool.
func (c *Cluster) RecoverMachine(id string) error {
	m, ok := c.machines[id]
	if !ok {
		return fmt.Errorf("cluster: machine %q unknown", id)
	}
	if !m.Crashed() {
		return nil
	}
	if r := c.responders[id]; r != nil {
		r.Close()
	}
	m.Restart()
	c.responders[id] = detect.NewResponder(m, detect.DefaultReplyCost)
	if c.sched != nil && c.members[id] {
		return c.sched.MemberUp(id, c.domains[id], c.schedCap)
	}
	return nil
}

// Stats returns the cluster's cumulative traffic counters.
func (c *Cluster) Stats() transport.Stats { return c.net.Stats() }

// Close shuts down the responders and the network. Safe after any number
// of RemoveMachine calls.
func (c *Cluster) Close() {
	for id, r := range c.responders {
		r.Close()
		delete(c.responders, id)
	}
	c.net.Close()
}
