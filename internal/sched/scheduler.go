package sched

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"streamha/internal/clock"
	"streamha/internal/machine"
	"streamha/internal/metrics"
)

// ErrNoCapacity is returned by Place when no schedulable machine satisfies
// the request (capacity exhausted, or anti-affinity excludes everything).
var ErrNoCapacity = errors.New("sched: no schedulable machine satisfies the request")

// ErrNoLeader is returned when no replica could commit the proposal within
// the propose timeout (majority down, or an election never settled).
var ErrNoLeader = errors.New("sched: placement log has no reachable leader")

// ErrUnknownMember rejects operations naming a machine the placement log
// has never admitted.
var ErrUnknownMember = errors.New("sched: machine is not a member")

// group namespaces the replicas' streams.
const group = "sched"

// Config configures a scheduler.
type Config struct {
	// Clock is the shared time source; nil selects the wall clock.
	Clock clock.Clock
	// Replicas are the machines hosting the placement-log replicas. One
	// replica works (a single-machine "majority"); three tolerate one
	// crash, the usual deployment.
	Replicas []*machine.Machine
	// Tick is the protocol heartbeat period (default 10ms); ElectionTimeout
	// is the base follower patience before standing for election (default
	// 80ms, jittered per replica); ProposeTimeout bounds how long a client
	// operation retries before giving up (default 3s).
	Tick            time.Duration
	ElectionTimeout time.Duration
	ProposeTimeout  time.Duration
}

// Scheduler is the client face of the placement log: membership updates
// and placement requests become proposed entries, acknowledged only once a
// majority of replicas stores them.
type Scheduler struct {
	cfg   Config
	nodes []*Node

	mu      sync.Mutex
	denials int
	started bool
}

// New creates a scheduler over the given replica machines.
func New(cfg Config) (*Scheduler, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("sched: need at least one replica machine")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.New()
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 10 * time.Millisecond
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 80 * time.Millisecond
	}
	if cfg.ProposeTimeout <= 0 {
		cfg.ProposeTimeout = 3 * time.Second
	}
	peers := make([]string, 0, len(cfg.Replicas))
	for _, m := range cfg.Replicas {
		peers = append(peers, string(m.ID()))
	}
	s := &Scheduler{cfg: cfg}
	for _, m := range cfg.Replicas {
		s.nodes = append(s.nodes, newNode(string(m.ID()), m, cfg.Clock, group, peers, cfg.Tick, cfg.ElectionTimeout))
	}
	return s, nil
}

// Start launches the replicas' protocol loops.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for _, n := range s.nodes {
		n.start()
	}
}

// Stop halts the replicas.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	s.mu.Unlock()
	for _, n := range s.nodes {
		n.stopNode()
	}
}

// leaderNode returns the live replica claiming leadership at the highest
// term, or nil during elections.
func (s *Scheduler) leaderNode() *Node {
	var best *Node
	bestTerm := uint64(0)
	for _, n := range s.nodes {
		if ok, term := n.isLeader(); ok && (best == nil || term > bestTerm) {
			best, bestTerm = n, term
		}
	}
	return best
}

// propose runs build on the current leader and waits for the resulting
// entry to commit, retrying across leader changes until ProposeTimeout. A
// proposal that committed but whose ack was lost may be retried and
// duplicated in the log; every op is idempotent under replay, so this is
// safe.
func (s *Scheduler) propose(build func(v *View) (Entry, error)) error {
	deadline := s.cfg.Clock.Now().Add(s.cfg.ProposeTimeout)
	for {
		if ldr := s.leaderNode(); ldr != nil {
			at, term, err := ldr.propose(build)
			switch {
			case err == nil:
				if ldr.waitCommitted(at, term, 500*time.Millisecond) {
					return nil
				}
			case !errors.Is(err, errNotLeader):
				return err
			}
		}
		if s.cfg.Clock.Now().After(deadline) {
			return ErrNoLeader
		}
		s.cfg.Clock.Sleep(s.cfg.Tick)
	}
}

// MemberUp admits machine id (or re-admits it after recovery) in the given
// fault domain with capacity subjob-copy slots.
func (s *Scheduler) MemberUp(id, domain string, capacity int) error {
	return s.propose(func(*View) (Entry, error) {
		return Entry{Op: OpMemberUp, Machine: id, Domain: domain, Capacity: capacity}, nil
	})
}

// MemberDown records a crash or removal: id stops being schedulable and
// all its slots are freed.
func (s *Scheduler) MemberDown(id string) error {
	return s.propose(func(*View) (Entry, error) {
		return Entry{Op: OpMemberDown, Machine: id}, nil
	})
}

// Place resolves req to a machine name. The choice is made by the leader
// against its up-to-date view and recorded in the log, so concurrent
// placements never oversubscribe a machine. Denials count toward Stats.
func (s *Scheduler) Place(req Request) (string, error) {
	placed := ""
	err := s.propose(func(v *View) (Entry, error) {
		id := choose(v, req)
		if id == "" {
			return Entry{}, ErrNoCapacity
		}
		placed = id
		return Entry{Op: OpPlace, Machine: id, Subjob: req.Subjob, Role: req.Role}, nil
	})
	if err != nil {
		if errors.Is(err, ErrNoCapacity) {
			s.mu.Lock()
			s.denials++
			s.mu.Unlock()
		}
		return "", err
	}
	return placed, nil
}

// Assign records that subjob's role now occupies machine id — used when
// reality decides the host (a promotion moved the primary onto the old
// standby) and the log must follow.
func (s *Scheduler) Assign(subjob string, role Role, id string) error {
	return s.propose(func(v *View) (Entry, error) {
		if v.Members[id] == nil {
			return Entry{}, ErrUnknownMember
		}
		return Entry{Op: OpPlace, Machine: id, Subjob: subjob, Role: role}, nil
	})
}

// ReleaseJob frees every slot subjob holds.
func (s *Scheduler) ReleaseJob(subjob string) error {
	return s.propose(func(*View) (Entry, error) {
		return Entry{Op: OpReleaseJob, Subjob: subjob}, nil
	})
}

// View returns the committed placement state, read from the replica with
// the longest committed prefix.
func (s *Scheduler) View() *View {
	var best *Node
	bestCommit := -1
	for _, n := range s.nodes {
		if st := n.status(); st.Commit > bestCommit {
			best, bestCommit = n, st.Commit
		}
	}
	if best == nil {
		return replay(nil)
	}
	return best.committedView()
}

// Assignment returns the committed host of subjob's role, if any.
func (s *Scheduler) Assignment(subjob string, role Role) (string, bool) {
	id, ok := s.View().Assignments[slotKey(subjob, role)]
	return id, ok
}

// Leader returns the current leader's machine id, or "".
func (s *Scheduler) Leader() string {
	if n := s.leaderNode(); n != nil {
		return n.id
	}
	return ""
}

// DomainStats aggregates occupancy for one fault domain.
type DomainStats struct {
	Machines int `json:"machines"`
	Up       int `json:"up"`
	Capacity int `json:"capacity"`
	Used     int `json:"used"`
}

// Stats is the scheduler snapshot exported through the metrics registry.
type Stats struct {
	Group         string                 `json:"group"`
	Leader        string                 `json:"leader"`
	Term          uint64                 `json:"term"`
	LogLen        int                    `json:"log_len"`
	Commit        int                    `json:"commit"`
	Members       int                    `json:"members"`
	MembersUp     int                    `json:"members_up"`
	Placements    int                    `json:"placements"`
	Denials       int                    `json:"denials"`
	LeaderChanges int                    `json:"leader_changes"`
	Domains       map[string]DomainStats `json:"domains"`
	Assignments   map[string]string      `json:"assignments"`
	Replicas      []NodeStatus           `json:"replicas"`
}

// Stats returns a snapshot of membership, occupancy and protocol health.
func (s *Scheduler) Stats() Stats {
	v := s.View()
	st := Stats{
		Group:         group,
		Leader:        s.Leader(),
		Placements:    v.Placements,
		LeaderChanges: v.LeaderChanges,
		Domains:       make(map[string]DomainStats),
		Assignments:   v.Assignments,
	}
	ids := make([]string, 0, len(v.Members))
	for id := range v.Members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m := v.Members[id]
		st.Members++
		d := st.Domains[m.Domain]
		d.Machines++
		if m.Up {
			st.MembersUp++
			d.Up++
			d.Capacity += m.Capacity
			d.Used += m.Used
		}
		st.Domains[m.Domain] = d
	}
	for _, n := range s.nodes {
		ns := n.status()
		st.Replicas = append(st.Replicas, ns)
		if ns.ID == st.Leader {
			st.Term = ns.Term
			st.LogLen = ns.LogLen
			st.Commit = ns.Commit
		}
	}
	s.mu.Lock()
	st.Denials = s.denials
	s.mu.Unlock()
	return st
}

// RegisterMetrics exports the scheduler under the "sched" source.
func (s *Scheduler) RegisterMetrics(reg *metrics.Registry) {
	reg.Register("sched", func() any { return s.Stats() })
}
