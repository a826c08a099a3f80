package metrics

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Source produces one named component's current metrics value. The value
// must be JSON-marshalable; it is re-evaluated on every snapshot so a
// registry poll always observes live state.
type Source func() any

// Registry aggregates named metric sources — transport traffic, queue
// depths, checkpoint sizes, detector quality, recovery phases — into one
// JSON-exportable snapshot that dashboards or the CLIs can poll while the
// pipeline runs. It is safe for concurrent use; sources are invoked
// outside the registry lock, so a slow source never blocks registration.
type Registry struct {
	mu      sync.RWMutex
	sources map[string]Source

	// ttl > 0 enables the per-source snapshot cache: a source whose last
	// evaluation is younger than ttl serves the cached value instead of
	// re-evaluating, bounding the cost of tight scrape loops (every
	// source evaluation takes component locks). 0 — the default — always
	// re-evaluates.
	ttl   time.Duration
	cache map[string]cachedValue
}

type cachedValue struct {
	val any
	at  time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: make(map[string]Source)}
}

// Register adds (or replaces) the source under name. Components
// conventionally namespace their entries, e.g. "subjob/stage@primary" or
// "transport".
func (r *Registry) Register(name string, src Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sources == nil {
		r.sources = make(map[string]Source)
	}
	r.sources[name] = src
	delete(r.cache, name)
}

// SetSourceTTL sets the per-source cache lifetime used by Snapshot (and
// everything built on it, like WritePrometheus): a source evaluated
// within the last d serves its cached value. d <= 0 disables caching,
// the default, and drops any cached values.
func (r *Registry) SetSourceTTL(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ttl = d
	r.cache = nil
}

// Names returns the registered source names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.sources))
	for n := range r.sources {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot evaluates every source and returns the combined view. The
// source functions run outside the registry lock; each entry is
// independent, so the snapshot is per-source consistent, not global.
// With a source TTL set (SetSourceTTL), sources evaluated within the
// TTL serve their cached value instead.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	ttl := r.ttl
	sources := make(map[string]Source, len(r.sources))
	for n, s := range r.sources {
		sources[n] = s
	}
	r.mu.RUnlock()

	out := make(map[string]any, len(sources))
	if ttl <= 0 {
		for n, s := range sources {
			out[n] = s()
		}
		return out
	}

	// Serve fresh-enough cache entries, collect the stale remainder.
	now := time.Now()
	stale := make(map[string]Source)
	r.mu.RLock()
	for n, s := range sources {
		if e, ok := r.cache[n]; ok && now.Sub(e.at) < ttl {
			out[n] = e.val
		} else {
			stale[n] = s
		}
	}
	r.mu.RUnlock()

	// Evaluate stale sources outside any lock, then refresh the cache.
	// Concurrent snapshots may race to evaluate the same source; last
	// write wins, which only means one redundant evaluation.
	for n, s := range stale {
		out[n] = s()
	}
	r.mu.Lock()
	if r.ttl == ttl { // SetSourceTTL may have reset the cache meanwhile
		if r.cache == nil {
			r.cache = make(map[string]cachedValue)
		}
		for n := range stale {
			r.cache[n] = cachedValue{val: out[n], at: now}
		}
	}
	r.mu.Unlock()
	return out
}

// JSON returns the snapshot as indented JSON.
func (r *Registry) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}
