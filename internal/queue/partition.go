package queue

import (
	"fmt"
	"sync"
	"sync/atomic"

	"streamha/internal/element"
)

// DefaultPartitions is the number of logical partitions a keyed-parallel
// stage is split into when the deployer does not choose one. It is the
// granularity of rescaling: a scale-out moves whole logical partitions
// between instances, so the table must be comfortably finer than the
// largest instance count ever expected.
const DefaultPartitions = 256

// Partitioner is the shared routing table of one keyed-parallel stage: P
// logical partitions (stable in P, see element.PartitionOf) mapped onto the
// stage's instances. Every producer copy feeding the stage consults the
// same Partitioner, so active-standby twins route identically, and the
// consumer-side input guards consult it too, so an element that raced a
// rescaling table flip is never processed by two instances.
//
// Reads are lock-free (an atomic pointer to an immutable table); Move
// installs a fresh table copy-on-write, which is what makes a live
// rescaling cutover a single pointer flip.
type Partitioner struct {
	table atomic.Pointer[[]int]

	mu        sync.Mutex
	instances int
}

// NewPartitioner builds a routing table of parts logical partitions spread
// contiguously over instances: partition p maps to instance p*instances/parts.
// parts <= 0 selects DefaultPartitions.
func NewPartitioner(parts, instances int) *Partitioner {
	if parts <= 0 {
		parts = DefaultPartitions
	}
	if instances <= 0 {
		instances = 1
	}
	if instances > parts {
		instances = parts
	}
	t := make([]int, parts)
	for p := range t {
		t[p] = p * instances / parts
	}
	pt := &Partitioner{instances: instances}
	pt.table.Store(&t)
	return pt
}

// Instances returns the number of instances the table currently maps onto.
func (pt *Partitioner) Instances() int {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.instances
}

// Instance returns the instance currently owning key's partition. It is the
// hot-path routing read: one atomic load plus one hash.
func (pt *Partitioner) Instance(key uint64) int {
	t := *pt.table.Load()
	return t[element.PartitionOf(key, len(t))]
}

// OwnedBy returns the logical partitions currently mapped to instance.
func (pt *Partitioner) OwnedBy(instance int) []int {
	t := *pt.table.Load()
	var out []int
	for p, inst := range t {
		if inst == instance {
			out = append(out, p)
		}
	}
	return out
}

// Move remaps the given logical partitions to instance to, installing the
// new table atomically — concurrent routing reads see either the old or the
// new table, never a mix. It grows the instance count when to is a new
// instance index.
func (pt *Partitioner) Move(partitions []int, to int) error {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	old := *pt.table.Load()
	if to < 0 || to > pt.instances {
		return fmt.Errorf("queue: move to instance %d with %d instances", to, pt.instances)
	}
	next := append([]int(nil), old...)
	for _, p := range partitions {
		if p < 0 || p >= len(next) {
			return fmt.Errorf("queue: move of unknown partition %d (have %d)", p, len(next))
		}
		next[p] = to
	}
	if to == pt.instances {
		pt.instances++
	}
	pt.table.Store(&next)
	return nil
}

// PartitionerStats is a JSON-marshalable view of a routing table, exported
// through the metrics registry.
type PartitionerStats struct {
	Partitions int   `json:"partitions"`
	Instances  int   `json:"instances"`
	PerInst    []int `json:"partitions_per_instance"`
}

// Stats counts the partitions owned by each instance.
func (pt *Partitioner) Stats() PartitionerStats {
	t := *pt.table.Load()
	st := PartitionerStats{Partitions: len(t), Instances: pt.Instances()}
	st.PerInst = make([]int, st.Instances)
	for _, inst := range t {
		if inst < len(st.PerInst) {
			st.PerInst[inst]++
		}
	}
	return st
}
