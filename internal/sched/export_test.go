package sched

import "streamha/internal/machine"

// Status returns the replica's current role, term and log position.
func (n *Node) Status() NodeStatus { return n.status() }

// CommittedView replays the replica's committed log prefix.
func (n *Node) CommittedView() *View { return n.committedView() }

// Nodes exposes the replicas.
func (s *Scheduler) Nodes() []*Node { return s.nodes }

// Replicas returns the machines hosting the placement-log replicas.
func (s *Scheduler) Replicas() []*machine.Machine { return s.cfg.Replicas }

// Drain keeps id's current slots but excludes it from new placements.
func (s *Scheduler) Drain(id string) error {
	return s.propose(func(*View) (Entry, error) {
		return Entry{Op: OpDrain, Machine: id}, nil
	})
}

// Release frees subjob's slot for one role.
func (s *Scheduler) Release(subjob string, role Role) error {
	return s.propose(func(*View) (Entry, error) {
		return Entry{Op: OpRelease, Subjob: subjob, Role: role}, nil
	})
}
