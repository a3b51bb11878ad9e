package predsvc

import (
	"encoding/json"
	"sort"

	"repro/internal/predict"
	"repro/internal/predsvc/store"
)

// Registry is the path → Session map of the service, a thin façade over
// the store.Store interface: all concrete map/LRU/spill machinery lives
// in internal/predsvc/store, and everything above this point — Server,
// snapshots, obs metrics — talks to the interface only.
//
// Two backings ship today: the sharded in-memory MemStore (the default;
// an evicted path loses its session) and the two-tier SpillStore
// (Config.SpillDir; evicted sessions spill to a checksummed disk log and
// fault back in on access, so cold paths survive far beyond Capacity).
type Registry struct {
	cfg Config
	st  store.Store
}

// NewRegistry builds an in-memory registry from cfg (zero value:
// defaults). cfg.SpillDir is ignored here — use OpenRegistry for a
// registry that may need disk resources.
func NewRegistry(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	return &Registry{cfg: cfg, st: store.NewMem(memConfig(cfg))}
}

// OpenRegistry builds a registry honoring cfg.SpillDir: empty gives the
// in-memory store, non-empty the disk-spilling two-tier store (whose log
// directory must be creatable — the only error source).
func OpenRegistry(cfg Config) (*Registry, error) {
	cfg = cfg.withDefaults()
	if cfg.SpillDir == "" {
		return &Registry{cfg: cfg, st: store.NewMem(memConfig(cfg))}, nil
	}
	st, err := store.OpenSpill(store.SpillConfig{
		Mem:   memConfig(cfg),
		Dir:   cfg.SpillDir,
		Codec: sessionCodec(cfg),
	})
	if err != nil {
		return nil, err
	}
	return &Registry{cfg: cfg, st: st}, nil
}

// NewRegistryOn wraps an arbitrary store.Store implementation — the seam
// for routed, remote, or test stores. The store's entries must be
// *Session values created by a session factory from the same Config.
func NewRegistryOn(cfg Config, st store.Store) *Registry {
	return &Registry{cfg: cfg.withDefaults(), st: st}
}

// memConfig maps the service Config onto the hot tier's store config,
// with the session constructor as the entry factory.
func memConfig(cfg Config) store.MemConfig {
	return store.MemConfig{
		Shards:   cfg.Shards,
		Capacity: cfg.Capacity,
		New:      func(path string) store.Entry { return newSession(path, cfg) },
	}
}

// sessionCodec serializes sessions across the hot/cold boundary as their
// JSON PathSnapshot — the same exact state the registry snapshot
// persists, so a fault-in continues exactly where the spill left off.
// The spill store encodes only on eviction, so Encode also retires the
// session (see Session.evict). A record whose state does not validate
// fails Decode, which the spill store counts as an error before
// recreating the session fresh.
func sessionCodec(cfg Config) store.Codec {
	return store.Codec{
		Encode: func(e store.Entry) ([]byte, error) {
			return json.Marshal(e.(*Session).evict())
		},
		Decode: func(path string, data []byte) (store.Entry, error) {
			var ps PathSnapshot
			if err := json.Unmarshal(data, &ps); err != nil {
				return nil, err
			}
			return decodeSession(path, cfg, ps)
		},
	}
}

// Config returns the effective (defaulted) configuration.
func (r *Registry) Config() Config { return r.cfg }

// Store exposes the underlying storage tier.
func (r *Registry) Store() store.Store { return r.st }

// Shards returns the hot tier's shard count (a power of two).
func (r *Registry) Shards() int { return r.st.Shards() }

// Capacity returns the enforced hot-tier session capacity.
func (r *Registry) Capacity() int { return r.st.Capacity() }

// GetOrCreate returns the session for path, creating it (possibly
// evicting — or, on a spill store, demoting — another) if absent. The
// returned session is marked most recently used.
func (r *Registry) GetOrCreate(path string) *Session {
	return r.st.GetOrCreate(path).(*Session)
}

// Lookup returns the session for path if present, marking it most
// recently used (a spill store promotes a cold session back into
// memory).
func (r *Registry) Lookup(path string) (*Session, bool) {
	e, ok := r.st.Lookup(path)
	if !ok {
		return nil, false
	}
	return e.(*Session), true
}

// GetOrCreateBytes is GetOrCreate keyed by a byte-slice view of the
// path — the wire fastpath's entry point. When the store implements
// store.BytesKeyed (both shipped stores do) a hit costs no allocation;
// otherwise the key is cloned and the string method used.
func (r *Registry) GetOrCreateBytes(path []byte) *Session {
	if bk, ok := r.st.(store.BytesKeyed); ok {
		return bk.GetOrCreateBytes(path).(*Session)
	}
	return r.st.GetOrCreate(string(path)).(*Session)
}

// update runs fn on path's session with its lock held, creating the
// session if absent. A handler holds a session outside the store's lock,
// so on a spill store a concurrent request may evict it between the
// lookup and the lock. An evicted copy is never updated — the update
// would be lost with it — and the lookup is retried, faulting the
// spilled state back in.
func (r *Registry) update(path []byte, fn func(*Session)) {
	for {
		s := r.GetOrCreateBytes(path)
		s.mu.Lock()
		live := !s.evicted
		if live {
			fn(s)
		}
		s.mu.Unlock()
		if live {
			return
		}
	}
}

// observe feeds one observation to path's session (see Session.Observe).
func (r *Registry) observe(path []byte, x float64) (n uint64) {
	r.update(path, func(s *Session) { n = s.absorbLocked(x) })
	return n
}

// setMeasurement installs valid measurements on path's session (see
// Session.SetMeasurement).
func (r *Registry) setMeasurement(path []byte, in predict.FBInputs) (f float64) {
	r.update(path, func(s *Session) { f = s.measureLocked(in) })
	return f
}

// LookupBytes is Lookup keyed by a byte-slice view of the path; see
// GetOrCreateBytes.
func (r *Registry) LookupBytes(path []byte) (*Session, bool) {
	var (
		e  store.Entry
		ok bool
	)
	if bk, bok := r.st.(store.BytesKeyed); bok {
		e, ok = bk.LookupBytes(path)
	} else {
		e, ok = r.st.Lookup(string(path))
	}
	if !ok {
		return nil, false
	}
	return e.(*Session), true
}

// Peek returns the session for path without touching recency — for stats
// and snapshots. On a spill store a cold session is served as a
// transient decoded copy: reads are accurate, mutations are lost.
func (r *Registry) Peek(path string) (*Session, bool) {
	e, ok := r.st.Peek(path)
	if !ok {
		return nil, false
	}
	return e.(*Session), true
}

// Delete removes path's session from every tier, reporting whether it
// was present. Deletion is how shard handoff relinquishes a path that
// now belongs to another node: no evict hook runs, the state is simply
// forgotten here (the importing node owns the authoritative copy).
func (r *Registry) Delete(path string) bool { return r.st.Delete(path) }

// install gives src's path the state of src (built by decodeSession
// from this registry's config), replacing any resident state wholesale:
// nothing is merged, so a retried handoff import lands in the same state.
func (r *Registry) install(src *Session) {
	r.update([]byte(src.path), func(s *Session) { s.sessionState = src.sessionState })
}

// Len returns the number of registered paths across all tiers.
func (r *Registry) Len() int { return r.st.Len() }

// Evictions returns the number of hot-tier evictions since construction
// (on a spill store each one is a spill, not a loss).
func (r *Registry) Evictions() uint64 { return r.st.Evictions() }

// TierStats reports hot/cold occupancy and spill/fault activity.
func (r *Registry) TierStats() store.TierStats { return r.st.Stats() }

// Recent returns up to n hot-tier sessions, most recently used first.
func (r *Registry) Recent(n int) []*Session {
	entries := r.st.Recent(n)
	out := make([]*Session, len(entries))
	for i, e := range entries {
		out[i] = e.(*Session)
	}
	return out
}

// Paths returns all registered path names, sorted.
func (r *Registry) Paths() []string {
	out := r.st.Paths()
	sort.Strings(out)
	return out
}

// Close releases the store's disk resources (a no-op for the in-memory
// store). The registry must not be used after.
func (r *Registry) Close() error { return r.st.Close() }

// forEachLRU visits every session coldest first (cold tier, then each
// hot shard least recently used first) without touching recency.
// Sessions self-lock; on the in-memory store fn runs outside the shard
// locks.
func (r *Registry) forEachLRU(fn func(*Session)) {
	r.st.Range(func(e store.Entry) bool {
		fn(e.(*Session))
		return true
	})
}
