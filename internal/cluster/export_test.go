package cluster

import "streamha/internal/machine"

// Machines returns all machines, in no particular order.
func (c *Cluster) Machines() []*machine.Machine {
	out := make([]*machine.Machine, 0, len(c.machines))
	for _, m := range c.machines {
		out = append(out, m)
	}
	return out
}
