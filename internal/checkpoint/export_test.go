package checkpoint

import "time"

// CheckpointNow takes one checkpoint synchronously (outside the timer),
// returning the time the pause lasted; the encode and ship happen on the
// background shipper. The individual variant checkpoints its first PE.
func (m *Core) CheckpointNow() time.Duration { return m.capture(0, byCall) }

// Stored returns the number of checkpoints acknowledged.
func (s *Store) Stored() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stored
}
