package sched

import (
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"time"

	"streamha/internal/clock"
	"streamha/internal/machine"
	"streamha/internal/transport"
)

// errNotLeader aborts a propose on a node that is not (or no longer) the
// leader; the scheduler client retries against the current leader.
var errNotLeader = errors.New("sched: not the leader")

type nodeRole int

const (
	roleFollower nodeRole = iota
	roleCandidate
	roleLeader
)

func (r nodeRole) String() string {
	switch r {
	case roleLeader:
		return "leader"
	case roleCandidate:
		return "candidate"
	default:
		return "follower"
	}
}

// wireMsg is the JSON payload of one placement-log protocol message,
// carried in a transport.Message's State field with Kind KindControl.
type wireMsg struct {
	Type string `json:"type"` // "vote-req", "vote-resp", "append", "append-resp"
	Term uint64 `json:"term"`
	From string `json:"from"`

	// vote-req: the candidate's log position; vote-resp: Granted.
	LastSeq  int    `json:"last_seq,omitempty"`
	LastTerm uint64 `json:"last_term,omitempty"`
	Granted  bool   `json:"granted,omitempty"`

	// append: the entries after the follower's first PrevSeq records, whose
	// last record must have term PrevTerm; append-resp: Ok plus Match, the
	// follower's replicated count on success or a conflict hint on refusal.
	PrevSeq  int     `json:"prev_seq,omitempty"`
	PrevTerm uint64  `json:"prev_term,omitempty"`
	Entries  []Entry `json:"entries,omitempty"`
	Commit   int     `json:"commit,omitempty"`
	Ok       bool    `json:"ok,omitempty"`
	Match    int     `json:"match,omitempty"`
}

func schedStream(group, node string) string { return "sched/" + group + "/" + node }

// Node is one placement-log replica, hosted on a cluster machine. Its
// term, vote and log model durable storage: they survive the machine's
// crash/restart cycle (the handler re-registers via an OnRestart hook), so
// a recovered replica rejoins with its history intact, catches up from the
// leader and counts toward the majority again.
type Node struct {
	id    string
	m     *machine.Machine
	clk   clock.Clock
	group string
	peers []string // all replica ids, including this one
	tick  time.Duration
	base  time.Duration // election timeout base
	rng   *rand.Rand    // guarded by mu; per-node jitter source

	mu        sync.Mutex
	role      nodeRole
	term      uint64
	votedFor  string
	log       []Entry
	commit    int
	leader    string
	lastHeard time.Time
	timeout   time.Duration
	votes     map[string]bool
	next      map[string]int // leader: count of entries to assume replicated
	match     map[string]int // leader: count of entries acked

	stop chan struct{}
	done chan struct{}
}

type outMsg struct {
	to  string
	msg wireMsg
}

func newNode(id string, m *machine.Machine, clk clock.Clock, group string, peers []string, tick, electBase time.Duration) *Node {
	seed := uint64(14695981039346656037)
	for _, b := range []byte(id) {
		seed = (seed ^ uint64(b)) * 1099511628211
	}
	n := &Node{
		id:    id,
		m:     m,
		clk:   clk,
		group: group,
		peers: peers,
		tick:  tick,
		base:  electBase,
		rng:   rand.New(rand.NewSource(int64(seed))),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	n.lastHeard = clk.Now()
	n.timeout = n.drawTimeoutLocked()
	n.register()
	m.OnRestart(func() {
		n.register()
		n.mu.Lock()
		n.role = roleFollower
		n.votes = nil
		n.lastHeard = n.clk.Now()
		n.timeout = n.drawTimeoutLocked()
		n.mu.Unlock()
	})
	return n
}

func (n *Node) register() {
	n.m.RegisterStream(schedStream(n.group, n.id), n.onMessage)
}

// drawTimeoutLocked picks a fresh randomized election timeout; the jitter
// keeps replicas from splitting the vote forever.
func (n *Node) drawTimeoutLocked() time.Duration {
	return n.base + time.Duration(n.rng.Int63n(int64(n.base)))
}

func (n *Node) start() {
	go n.run()
}

func (n *Node) stopNode() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	<-n.done
}

func (n *Node) run() {
	defer close(n.done)
	t := n.clk.NewTicker(n.tick)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C():
			n.tickOnce()
		}
	}
}

func (n *Node) tickOnce() {
	now := n.clk.Now()
	if n.m.Crashed() {
		// Frozen: keep the election timer from firing the instant the
		// machine recovers.
		n.mu.Lock()
		n.lastHeard = now
		n.mu.Unlock()
		return
	}
	var out []outMsg
	n.mu.Lock()
	switch n.role {
	case roleLeader:
		out = n.appendsLocked()
	default:
		if now.Sub(n.lastHeard) >= n.timeout {
			out = n.electLocked(now)
		}
	}
	n.mu.Unlock()
	n.sendAll(out)
}

// electLocked starts a new election: bump the term, vote for self, solicit
// the rest. A single-replica group elects itself immediately.
func (n *Node) electLocked(now time.Time) []outMsg {
	n.term++
	n.role = roleCandidate
	n.votedFor = n.id
	n.votes = map[string]bool{n.id: true}
	n.lastHeard = now
	n.timeout = n.drawTimeoutLocked()
	if 2*len(n.votes) > len(n.peers) {
		return n.becomeLeaderLocked()
	}
	lastTerm := uint64(0)
	if len(n.log) > 0 {
		lastTerm = n.log[len(n.log)-1].Term
	}
	out := make([]outMsg, 0, len(n.peers)-1)
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		out = append(out, outMsg{p, wireMsg{
			Type: "vote-req", Term: n.term, From: n.id,
			LastSeq: len(n.log), LastTerm: lastTerm,
		}})
	}
	return out
}

func (n *Node) becomeLeaderLocked() []outMsg {
	n.role = roleLeader
	n.leader = n.id
	n.next = make(map[string]int, len(n.peers))
	n.match = make(map[string]int, len(n.peers))
	for _, p := range n.peers {
		n.next[p] = len(n.log)
	}
	// Committing an entry from the new term is the only way to learn the
	// commit point of inherited entries; the no-op doubles as the
	// leader-change record.
	n.log = append(n.log, Entry{Term: n.term, Op: OpLeader, Machine: n.id})
	n.advanceCommitLocked()
	return n.appendsLocked()
}

// appendsLocked builds one append (heartbeat + replication in one) per
// peer, resending everything past the peer's acked prefix.
func (n *Node) appendsLocked() []outMsg {
	out := make([]outMsg, 0, len(n.peers)-1)
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		prev := n.next[p]
		if prev > len(n.log) {
			prev = len(n.log)
		}
		prevTerm := uint64(0)
		if prev > 0 {
			prevTerm = n.log[prev-1].Term
		}
		out = append(out, outMsg{p, wireMsg{
			Type: "append", Term: n.term, From: n.id,
			PrevSeq: prev, PrevTerm: prevTerm,
			Entries: append([]Entry(nil), n.log[prev:]...),
			Commit:  n.commit,
		}})
	}
	return out
}

func (n *Node) sendAll(out []outMsg) {
	for _, o := range out {
		blob, err := json.Marshal(o.msg)
		if err != nil {
			continue
		}
		n.m.Send(transport.NodeID(o.to), transport.Message{
			Kind:   transport.KindControl,
			Stream: schedStream(n.group, o.to),
			State:  blob,
		})
	}
}

func (n *Node) onMessage(_ transport.NodeID, msg transport.Message) {
	var wm wireMsg
	if err := json.Unmarshal(msg.State, &wm); err != nil {
		return
	}
	now := n.clk.Now()
	var out []outMsg
	n.mu.Lock()
	switch wm.Type {
	case "vote-req":
		out = n.handleVoteReqLocked(&wm, now)
	case "vote-resp":
		out = n.handleVoteRespLocked(&wm)
	case "append":
		out = n.handleAppendLocked(&wm, now)
	case "append-resp":
		n.handleAppendRespLocked(&wm)
	}
	n.mu.Unlock()
	n.sendAll(out)
}

func (n *Node) stepDownLocked(term uint64) {
	if term > n.term {
		n.term = term
		n.votedFor = ""
	}
	n.role = roleFollower
	n.votes = nil
}

func (n *Node) handleVoteReqLocked(wm *wireMsg, now time.Time) []outMsg {
	if wm.Term > n.term {
		n.stepDownLocked(wm.Term)
	}
	granted := false
	if wm.Term == n.term && (n.votedFor == "" || n.votedFor == wm.From) {
		myLastTerm := uint64(0)
		if len(n.log) > 0 {
			myLastTerm = n.log[len(n.log)-1].Term
		}
		// Only a candidate whose log is at least as complete may win: this
		// is what guarantees committed placements survive leader changes.
		if wm.LastTerm > myLastTerm || (wm.LastTerm == myLastTerm && wm.LastSeq >= len(n.log)) {
			granted = true
			n.votedFor = wm.From
			n.lastHeard = now
		}
	}
	return []outMsg{{wm.From, wireMsg{Type: "vote-resp", Term: n.term, From: n.id, Granted: granted}}}
}

func (n *Node) handleVoteRespLocked(wm *wireMsg) []outMsg {
	if wm.Term > n.term {
		n.stepDownLocked(wm.Term)
		return nil
	}
	if n.role != roleCandidate || wm.Term != n.term || !wm.Granted {
		return nil
	}
	n.votes[wm.From] = true
	if 2*len(n.votes) > len(n.peers) {
		return n.becomeLeaderLocked()
	}
	return nil
}

func (n *Node) handleAppendLocked(wm *wireMsg, now time.Time) []outMsg {
	if wm.Term < n.term {
		return []outMsg{{wm.From, wireMsg{Type: "append-resp", Term: n.term, From: n.id, Ok: false}}}
	}
	if wm.Term > n.term {
		n.stepDownLocked(wm.Term)
	}
	n.role = roleFollower
	n.leader = wm.From
	n.lastHeard = now
	n.timeout = n.drawTimeoutLocked()

	if wm.PrevSeq > len(n.log) {
		// Missing records before the batch: hint the leader to back up to
		// our log length instead of probing one record at a time.
		return []outMsg{{wm.From, wireMsg{Type: "append-resp", Term: n.term, From: n.id, Ok: false, Match: len(n.log)}}}
	}
	if wm.PrevSeq > 0 && n.log[wm.PrevSeq-1].Term != wm.PrevTerm {
		return []outMsg{{wm.From, wireMsg{Type: "append-resp", Term: n.term, From: n.id, Ok: false, Match: wm.PrevSeq - 1}}}
	}
	// Truncate only at a real conflict; a stale duplicate append must not
	// roll back records appended since.
	for i := range wm.Entries {
		at := wm.PrevSeq + i
		if at < len(n.log) {
			if n.log[at].Term != wm.Entries[i].Term {
				n.log = append(n.log[:at], wm.Entries[i:]...)
				break
			}
			continue
		}
		n.log = append(n.log, wm.Entries[i:]...)
		break
	}
	matched := wm.PrevSeq + len(wm.Entries)
	if wm.Commit > n.commit {
		n.commit = wm.Commit
		if n.commit > len(n.log) {
			n.commit = len(n.log)
		}
	}
	return []outMsg{{wm.From, wireMsg{Type: "append-resp", Term: n.term, From: n.id, Ok: true, Match: matched}}}
}

func (n *Node) handleAppendRespLocked(wm *wireMsg) {
	if wm.Term > n.term {
		n.stepDownLocked(wm.Term)
		return
	}
	if n.role != roleLeader || wm.Term != n.term {
		return
	}
	if wm.Ok {
		if wm.Match > n.match[wm.From] {
			n.match[wm.From] = wm.Match
		}
		n.next[wm.From] = n.match[wm.From]
		n.advanceCommitLocked()
		return
	}
	nxt := n.next[wm.From] - 1
	if wm.Match < nxt {
		nxt = wm.Match
	}
	if nxt < 0 {
		nxt = 0
	}
	n.next[wm.From] = nxt
}

// advanceCommitLocked moves the commit point to the largest prefix a
// majority stores, restricted to entries from the current term.
func (n *Node) advanceCommitLocked() {
	for c := len(n.log); c > n.commit; c-- {
		if n.log[c-1].Term != n.term {
			break
		}
		acked := 1 // self
		for _, p := range n.peers {
			if p != n.id && n.match[p] >= c {
				acked++
			}
		}
		if 2*acked > len(n.peers) {
			n.commit = c
			return
		}
	}
}

// propose appends one entry built against the node's speculative view (all
// entries, committed or not — so back-to-back placements see each other).
// Returns the entry's position and term for commit tracking.
func (n *Node) propose(build func(v *View) (Entry, error)) (int, uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != roleLeader || n.m.Crashed() {
		return 0, 0, errNotLeader
	}
	e, err := build(replay(n.log))
	if err != nil {
		return 0, 0, err
	}
	e.Term = n.term
	n.log = append(n.log, e)
	n.advanceCommitLocked()
	return len(n.log) - 1, n.term, nil
}

// waitCommitted blocks until the entry at (at, term) commits, is
// overwritten by a different term, or the timeout expires.
func (n *Node) waitCommitted(at int, term uint64, timeout time.Duration) bool {
	deadline := n.clk.Now().Add(timeout)
	for {
		n.mu.Lock()
		if at < len(n.log) && n.log[at].Term != term {
			n.mu.Unlock()
			return false
		}
		if n.commit > at {
			ok := n.log[at].Term == term
			n.mu.Unlock()
			return ok
		}
		n.mu.Unlock()
		if n.clk.Now().After(deadline) {
			return false
		}
		n.clk.Sleep(2 * time.Millisecond)
	}
}

// NodeStatus is one replica's introspection snapshot, for tests and the
// metrics registry.
type NodeStatus struct {
	ID     string `json:"id"`
	Role   string `json:"role"`
	Term   uint64 `json:"term"`
	LogLen int    `json:"log_len"`
	Commit int    `json:"commit"`
	Leader string `json:"leader"`
}

// status returns the replica's current role, term and log position.
func (n *Node) status() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeStatus{
		ID: n.id, Role: n.role.String(), Term: n.term,
		LogLen: len(n.log), Commit: n.commit, Leader: n.leader,
	}
}

// committedView replays the replica's committed log prefix.
func (n *Node) committedView() *View {
	n.mu.Lock()
	prefix := append([]Entry(nil), n.log[:n.commit]...)
	n.mu.Unlock()
	return replay(prefix)
}

func (n *Node) isLeader() (bool, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == roleLeader && !n.m.Crashed(), n.term
}
