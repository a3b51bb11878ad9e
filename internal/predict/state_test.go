package predict

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestRingFIFO(t *testing.T) {
	r := MakeRing(3)
	for i, want := range []struct {
		evicted float64
		ok      bool
	}{{0, false}, {0, false}, {0, false}, {1, true}, {2, true}} {
		ev, ok := r.Push(float64(i + 1))
		if ev != want.evicted || ok != want.ok {
			t.Fatalf("push %d: evicted %v,%v want %v,%v", i+1, ev, ok, want.evicted, want.ok)
		}
	}
	if got := r.AppendTo(nil); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("AppendTo = %v, want [3 4 5]", got)
	}
	if r.Last() != 5 || r.Len() != 3 || r.Cap() != 3 {
		t.Fatalf("Last %v Len %d Cap %d", r.Last(), r.Len(), r.Cap())
	}
	var seen []float64
	r.Do(func(v float64) { seen = append(seen, v) })
	if len(seen) != 3 || seen[0] != 3 || seen[1] != 4 || seen[2] != 5 {
		t.Fatalf("Do visited %v, want oldest first", seen)
	}

	loaded := MakeRing(3)
	d := stateDecoder{src: append(r.AppendState(nil), 42)}
	d.ring(&loaded, true)
	if rest, err := d.result(); err != nil || len(rest) != 1 || rest[0] != 42 {
		t.Fatalf("ring state: rest %v err %v", rest, err)
	}
	loaded.Push(6)
	r.Push(6)
	if a, b := loaded.AppendTo(nil), r.AppendTo(nil); a[0] != b[0] || a[2] != b[2] || loaded.Last() != 6 {
		t.Fatalf("loaded ring diverged: %v vs %v", a, b)
	}
	small := MakeRing(2)
	d = stateDecoder{src: []float64{3, 1, 2, 3}}
	if d.ring(&small, false); !errors.Is(d.err, ErrBadState) {
		t.Fatalf("over-capacity state accepted: %v", d.err)
	}
}

// stateCase builds one Stateful predictor under test.
type stateCase struct {
	name string
	mk   func() HB
}

func stateCases() []stateCase {
	lso := DefaultLSOConfig()
	return []stateCase{
		{"MA", func() HB { return NewMA(10) }},
		{"EWMA", func() HB { return NewEWMA(0.8) }},
		{"HW", func() HB { return NewHoltWinters(0.8, 0.2) }},
		{"MA-LSO", func() HB { return NewLSO(NewMA(10), lso) }},
		{"EWMA-LSO", func() HB { return NewLSO(NewEWMA(0.8), lso) }},
		{"HW-LSO", func() HB { return NewLSO(NewHoltWinters(0.8, 0.2), lso) }},
		{"switcher", func() HB {
			return NewStabilitySwitcher(NewEWMA(0.8), NewMA(10), SwitcherConfig{})
		}},
		{"regression", func() HB { return NewRegression(RegressionConfig{}) }},
		{"ECM", func() HB { return NewECM(ECMConfig{}) }},
	}
}

// conditioned is implemented by the predictors that take path features.
type conditioned interface{ setInputs(FBInputs) }

func (r *Regression) setInputs(in FBInputs) { r.SetFeatures(in) }
func (e *ECM) setInputs(in FBInputs)        { e.SetConditions(in) }

// stateSeries is a throughput series with level shifts, outlier dips and
// a few measurement regimes, long enough to wrap every ring.
func stateSeries(n int) ([]float64, []FBInputs) {
	rng := rand.New(rand.NewSource(17))
	level := 20e6
	xs := make([]float64, n)
	ins := make([]FBInputs, n)
	for i := range xs {
		if rng.Float64() < 0.03 {
			level = 20e6 * (0.4 + 1.2*rng.Float64())
		}
		x := level * (1 + 0.1*rng.NormFloat64())
		if rng.Float64() < 0.04 {
			x = level * 0.3
		}
		xs[i] = math.Max(x, 1e4)
		ins[i] = FBInputs{RTT: 0.02 * float64(1+i%3), LossRate: 0.001 * float64(i%2), AvailBw: level}
	}
	return xs, ins
}

func step(p HB, x float64, in FBInputs) {
	if c, ok := p.(conditioned); ok {
		c.setInputs(in)
	}
	p.Observe(x)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStateRestoreExact: for every Stateful predictor and several cut
// points (before, at and long after every ring wraps), loading the saved
// state into a fresh predictor reproduces the state vector exactly and
// every later forecast bit for bit.
func TestStateRestoreExact(t *testing.T) {
	xs, ins := stateSeries(500)
	for _, c := range stateCases() {
		for _, cut := range []int{0, 1, 5, 60, 129, 400} {
			live := c.mk()
			for i := 0; i < cut; i++ {
				step(live, xs[i], ins[i])
			}
			saved := live.(Stateful).AppendState(nil)
			restored := c.mk()
			rest, err := restored.(Stateful).LoadState(saved)
			if err != nil || len(rest) != 0 {
				t.Fatalf("%s cut %d: LoadState rest %v err %v", c.name, cut, rest, err)
			}
			if again := restored.(Stateful).AppendState(nil); !sameBits(again, saved) {
				t.Fatalf("%s cut %d: state not a fixpoint:\nsaved  %v\nloaded %v", c.name, cut, saved, again)
			}
			for i := cut; i < len(xs); i++ {
				if c, ok := live.(conditioned); ok {
					c.setInputs(ins[i])
					restored.(conditioned).setInputs(ins[i])
				}
				f1, ok1 := live.Predict()
				f2, ok2 := restored.Predict()
				if ok1 != ok2 || math.Float64bits(f1) != math.Float64bits(f2) {
					t.Fatalf("%s cut %d: epoch %d forecast %v,%v, live %v,%v", c.name, cut, i, f2, ok2, f1, ok1)
				}
				step(live, xs[i], ins[i])
				step(restored, xs[i], ins[i])
			}
			if l, ok := live.(*LSO); ok {
				r := restored.(*LSO)
				if l.Shifts != r.Shifts || l.Outliers != r.Outliers {
					t.Fatalf("%s cut %d: shifts/outliers %d/%d, live %d/%d", c.name, cut, r.Shifts, r.Outliers, l.Shifts, l.Outliers)
				}
			}
		}
	}
}

// TestStateRejectsMalformed: every strict prefix of a valid state, and
// the state with any one value replaced by NaN or ±Inf, is rejected.
func TestStateRejectsMalformed(t *testing.T) {
	xs, ins := stateSeries(200)
	for _, c := range stateCases() {
		live := c.mk()
		for i := range xs {
			step(live, xs[i], ins[i])
		}
		saved := live.(Stateful).AppendState(nil)
		for n := 0; n < len(saved); n++ {
			if _, err := c.mk().(Stateful).LoadState(saved[:n]); !errors.Is(err, ErrBadState) {
				t.Fatalf("%s: %d-value prefix of %d accepted (err %v)", c.name, n, len(saved), err)
			}
		}
		for i := range saved {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				v := append([]float64(nil), saved...)
				v[i] = bad
				if _, err := c.mk().(Stateful).LoadState(v); !errors.Is(err, ErrBadState) {
					t.Fatalf("%s: %v at %d accepted (err %v)", c.name, bad, i, err)
				}
			}
		}
	}
}

// TestStateRejectsOutOfRange covers the semantic checks: counts that are
// fractional, negative or past a capacity, and non-positive samples
// where only positive ones are admitted.
func TestStateRejectsOutOfRange(t *testing.T) {
	bad := map[string]struct {
		p HB
		v []float64
	}{
		"MA count past order":      {NewMA(3), []float64{6, 4, 1, 2, 3}},
		"MA fractional count":      {NewMA(3), []float64{3, 1.5, 1, 2}},
		"MA negative count":        {NewMA(3), []float64{0, -1}},
		"EWMA seen flag 2":         {NewEWMA(0.5), []float64{1, 2}},
		"HW negative n":            {NewHoltWinters(0.8, 0.2), []float64{1, 1, 1, -3}},
		"LSO window past max":      {NewLSO(NewEWMA(0.5), LSOConfig{MaxHistory: 2}), []float64{0, 3, 1, 2, 3, 1, 1}},
		"LSO fractional shifts":    {NewLSO(NewEWMA(0.5), LSOConfig{}), []float64{0.5, 0, 1, 1}},
		"regression zero sample":   {NewRegression(RegressionConfig{}), append(make([]float64, 28), 1, 0)},
		"regression fractional n":  {NewRegression(RegressionConfig{}), append(make([]float64, 27), 0.5, 0)},
		"ECM negative sample":      {NewECM(ECMConfig{}), []float64{1, -5e6, 0}},
		"ECM key out of range":     {NewECM(ECMConfig{}), []float64{0, 1, 13, 0, 0, 1, 1e6}},
		"ECM keys out of order":    {NewECM(ECMConfig{}), []float64{0, 2, 1, 0, 0, 1, 1e6, 0, 0, 0, 1, 1e6}},
		"ECM duplicate bucket key": {NewECM(ECMConfig{}), []float64{0, 2, 0, 0, 0, 1, 1e6, 0, 0, 0, 1, 1e6}},
		"switcher window past cap": {NewStabilitySwitcher(NewEWMA(0.5), NewMA(2), SwitcherConfig{Window: 1}), []float64{2, 1, 1}},
	}
	for name, c := range bad {
		if _, err := c.p.(Stateful).LoadState(c.v); !errors.Is(err, ErrBadState) {
			t.Errorf("%s: accepted (err %v)", name, err)
		}
	}
}
