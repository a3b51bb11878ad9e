package predict

import "strconv"

// HB is the interface of history-based one-step-ahead predictors. The usage
// protocol is: call Predict to obtain the forecast for the next
// measurement, then Observe the actual value, repeatedly. Predict before
// any observation returns (0, false).
//
// Implementations are NOT goroutine-safe: Predict, Observe and Reset must
// never be called concurrently on the same predictor. Concurrent callers
// (e.g. a prediction service handling many clients) must serialize access
// themselves; the predsvc.Session wrapper in internal/predsvc does exactly
// that and is the intended goroutine-safe entry point.
type HB interface {
	// Predict returns the forecast for the next value and whether enough
	// history exists to make one.
	Predict() (float64, bool)
	// Observe feeds the next actual measurement.
	Observe(x float64)
	// Reset discards all history.
	Reset()
	// Name identifies the predictor (e.g. "10-MA", "0.8-HW").
	Name() string
}

// MA is the n-order Moving Average predictor (paper §5.1.1): the forecast
// is the mean of the last n observations.
type MA struct {
	n    int
	win  Ring
	sum  float64 // running sum of win, updated per observation
	name string
}

// NewMA returns an n-order moving average (n ≥ 1).
func NewMA(n int) *MA {
	if n < 1 {
		n = 1
	}
	return &MA{n: n, win: MakeRing(n), name: maName(n)}
}

func maName(n int) string {
	return strconv.Itoa(n) + "-MA"
}

// Predict implements HB.
func (m *MA) Predict() (float64, bool) {
	c := m.win.Len()
	if c == 0 {
		return 0, false
	}
	return m.sum / float64(c), true
}

// Observe implements HB.
func (m *MA) Observe(x float64) {
	if old, ok := m.win.Push(x); ok {
		m.sum += x - old
	} else {
		m.sum += x
	}
}

// Reset implements HB.
func (m *MA) Reset() {
	m.win.Reset()
	m.sum = 0
}

// Name implements HB.
func (m *MA) Name() string { return m.name }

// Order returns n.
func (m *MA) Order() int { return m.n }

// AppendState implements Stateful: the running sum (kept as accumulated,
// since re-summing the window would differ in the last bits), then the
// window.
func (m *MA) AppendState(dst []float64) []float64 {
	return m.win.AppendState(append(dst, m.sum))
}

// LoadState implements Stateful.
func (m *MA) LoadState(src []float64) ([]float64, error) {
	d := stateDecoder{src: src}
	m.sum = d.float()
	d.ring(&m.win, false)
	return d.result()
}

// EWMA is the exponentially weighted moving average predictor (paper
// §5.1.2): X̂_{i+1} = α·X_i + (1-α)·X̂_i.
type EWMA struct {
	alpha float64
	pred  float64
	seen  bool
	name  string
}

// NewEWMA returns an EWMA predictor with weight alpha in (0, 1).
func NewEWMA(alpha float64) *EWMA {
	return &EWMA{alpha: alpha, name: paramString(alpha) + "-EWMA"}
}

// Predict implements HB.
func (e *EWMA) Predict() (float64, bool) {
	if !e.seen {
		return 0, false
	}
	return e.pred, true
}

// Observe implements HB.
func (e *EWMA) Observe(x float64) {
	if !e.seen {
		e.pred = x
		e.seen = true
		return
	}
	e.pred = e.alpha*x + (1-e.alpha)*e.pred
}

// Reset implements HB.
func (e *EWMA) Reset() { e.seen = false; e.pred = 0 }

// Name implements HB.
func (e *EWMA) Name() string { return e.name }

// AppendState implements Stateful: the standing forecast and whether any
// sample was seen.
func (e *EWMA) AppendState(dst []float64) []float64 {
	if e.seen {
		return append(dst, e.pred, 1)
	}
	return append(dst, e.pred, 0)
}

// LoadState implements Stateful.
func (e *EWMA) LoadState(src []float64) ([]float64, error) {
	d := stateDecoder{src: src}
	e.pred = d.float()
	e.seen = d.count(1) == 1
	return d.result()
}

// HoltWinters is the non-seasonal Holt-Winters predictor (paper §5.1.3),
// maintaining a smoothing component X̂ˢ and a trend component X̂ᵗ:
//
//	forecast  X̂ᶠ_i   = X̂ˢ_i + X̂ᵗ_i
//	smoothing X̂ˢ_{i+1} = α·X_i + (1-α)·X̂ᶠ_i
//	trend     X̂ᵗ_{i+1} = β·(X̂ˢ_{i+1} - X̂ˢ_i) + (1-β)·X̂ᵗ_i
//
// seeded with X̂ˢ_0 = X_0 and X̂ᵗ_0 = X_1 - X_0.
type HoltWinters struct {
	alpha, beta float64
	s, t        float64 // current smoothing and trend components
	x0          float64
	n           int // observations so far
	name        string
}

// NewHoltWinters returns a Holt-Winters predictor; the paper uses α = 0.8,
// β = 0.2.
func NewHoltWinters(alpha, beta float64) *HoltWinters {
	return &HoltWinters{alpha: alpha, beta: beta, name: paramString(alpha) + "-HW"}
}

// Predict implements HB.
func (h *HoltWinters) Predict() (float64, bool) {
	switch h.n {
	case 0:
		return 0, false
	case 1:
		// Only X_0 seen: no trend yet; forecast the level.
		return h.x0, true
	default:
		return h.s + h.t, true
	}
}

// Observe implements HB.
func (h *HoltWinters) Observe(x float64) {
	switch h.n {
	case 0:
		h.x0 = x
	case 1:
		// Seed: X̂ˢ_0 = X_0, X̂ᵗ_0 = X_1 - X_0, then absorb X_1.
		h.s = h.x0
		h.t = x - h.x0
		h.step(x)
	default:
		h.step(x)
	}
	h.n++
}

func (h *HoltWinters) step(x float64) {
	forecast := h.s + h.t
	sNext := h.alpha*x + (1-h.alpha)*forecast
	h.t = h.beta*(sNext-h.s) + (1-h.beta)*h.t
	h.s = sNext
}

// Reset implements HB.
func (h *HoltWinters) Reset() { h.s, h.t, h.x0, h.n = 0, 0, 0, 0 }

// Name implements HB.
func (h *HoltWinters) Name() string { return h.name }

// AppendState implements Stateful: the smoothing and trend components,
// the first sample and the sample count.
func (h *HoltWinters) AppendState(dst []float64) []float64 {
	return append(dst, h.s, h.t, h.x0, float64(h.n))
}

// LoadState implements Stateful.
func (h *HoltWinters) LoadState(src []float64) ([]float64, error) {
	d := stateDecoder{src: src}
	h.s, h.t, h.x0 = d.float(), d.float(), d.float()
	h.n = d.count(maxCount)
	return d.result()
}

// paramString renders a smoothing parameter for a predictor name using the
// shortest exact decimal representation ("0.8", "0.25").
func paramString(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
