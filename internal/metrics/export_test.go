package metrics

import "time"

// Quantiles returns the percentile for each of ps with a single merge and
// sort of the reservoirs. Each p follows the same convention as
// Percentile.
func (d *DelayStats) Quantiles(ps ...float64) []time.Duration {
	return d.quantiles(ps...)
}

// Unregister removes the source under name, if present.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sources, name)
	delete(r.cache, name)
}

// Total returns the full recovery time: failure inception to first new
// output.
func (r Recovery) Total() time.Duration { return r.FirstOutputAt.Sub(r.FailureAt) }
