package predict

import "math"

// SwitcherConfig tunes the stability-aware hybrid switcher.
type SwitcherConfig struct {
	// Window is the number of recent samples the stability statistic is
	// computed over (default 16).
	Window int
	// CoVThreshold is the coefficient-of-variation boundary between the
	// "stable" and "volatile" regimes (default 0.25, per Sun et al.'s
	// observation that throughput is highly predictable below ~25%
	// relative variation).
	CoVThreshold float64
}

func (c SwitcherConfig) defaults() SwitcherConfig {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.CoVThreshold <= 0 {
		c.CoVThreshold = 0.25
	}
	return c
}

// StabilitySwitcher is the stability-aware hybrid predictor of Sun et
// al.: both inner predictors absorb every observation, and each forecast
// is delegated to the one matching the current regime — `stable` while
// the rolling coefficient of variation of recent samples stays below the
// threshold, `volatile` once it exceeds it. The typical pairing is a
// reactive tracker (EWMA/HW) for stable regimes and a robust smoother
// (wide MA) for volatile ones.
type StabilitySwitcher struct {
	cfg      SwitcherConfig
	stable   HB
	volatile HB

	ring Ring // the stability window
}

// NewStabilitySwitcher wraps the two inner predictors.
func NewStabilitySwitcher(stable, volatile HB, cfg SwitcherConfig) *StabilitySwitcher {
	cfg = cfg.defaults()
	return &StabilitySwitcher{
		cfg:      cfg,
		stable:   stable,
		volatile: volatile,
		ring:     MakeRing(cfg.Window),
	}
}

// Name implements HB.
func (s *StabilitySwitcher) Name() string { return "switcher" }

// Volatile reports whether the current regime is volatile (for tests
// and diagnostics).
func (s *StabilitySwitcher) Volatile() bool {
	return s.cov() > s.cfg.CoVThreshold
}

// cov returns the coefficient of variation of the retained window
// (0 with fewer than 2 samples). Both passes accumulate in chronological
// order so a restored (compacted) ring and a live (rotated) ring with the
// same contents produce bit-identical statistics.
func (s *StabilitySwitcher) cov() float64 {
	n := s.ring.Len()
	if n < 2 {
		return 0
	}
	var sum float64
	s.ring.Do(func(v float64) { sum += v })
	mean := sum / float64(n)
	if mean <= 0 {
		return 0
	}
	var ss float64
	s.ring.Do(func(v float64) {
		d := v - mean
		ss += d * d
	})
	return math.Sqrt(ss/float64(n)) / mean
}

// Predict implements HB: delegate to the regime's predictor, falling
// back to the other one while the preferred predictor is not yet ready.
func (s *StabilitySwitcher) Predict() (float64, bool) {
	first, second := s.stable, s.volatile
	if s.Volatile() {
		first, second = s.volatile, s.stable
	}
	if f, ok := first.Predict(); ok {
		return f, true
	}
	return second.Predict()
}

// Observe implements HB.
func (s *StabilitySwitcher) Observe(x float64) {
	s.ring.Push(x)
	s.stable.Observe(x)
	s.volatile.Observe(x)
}

// Reset implements HB.
func (s *StabilitySwitcher) Reset() {
	s.ring.Reset()
	s.stable.Reset()
	s.volatile.Reset()
}

// AppendState implements Stateful: the stability window, then the stable
// and volatile predictors' states.
func (s *StabilitySwitcher) AppendState(dst []float64) []float64 {
	dst = s.ring.AppendState(dst)
	dst = appendInner(dst, s.stable)
	return appendInner(dst, s.volatile)
}

// LoadState implements Stateful.
func (s *StabilitySwitcher) LoadState(src []float64) ([]float64, error) {
	d := stateDecoder{src: src}
	d.ring(&s.ring, false)
	d.inner(s.stable)
	d.inner(s.volatile)
	return d.result()
}
