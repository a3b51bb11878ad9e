package predict

import (
	"cmp"
	"math"
	"slices"
)

// ECMConfig tunes the Empirical Conditional Method predictor.
type ECMConfig struct {
	// BucketCap bounds the samples retained per conditioning bucket
	// (default 64).
	BucketCap int
	// GlobalCap bounds the unconditional fallback ring (default 128).
	GlobalCap int
	// MinBucket is the minimum samples a bucket needs before it is
	// preferred over the global distribution (default 5).
	MinBucket int
}

func (c ECMConfig) defaults() ECMConfig {
	if c.BucketCap <= 0 {
		c.BucketCap = 64
	}
	if c.GlobalCap <= 0 {
		c.GlobalCap = 128
	}
	if c.MinBucket <= 0 {
		c.MinBucket = 5
	}
	return c
}

// ecmKey identifies one conditioning bucket: log-scale bins of the path
// measurements that Zheng's ECM conditions on. Small integer fields keep
// the key comparable and cheap to hash.
type ecmKey struct {
	RTT  int8 // floor(log2(RTT in ms)), clamped; -1 when unknown
	Loss int8 // floor(log10(loss rate)) in [-5,-1]; 0 = lossless
	ABW  int8 // floor(log2(avail-bw in Mbps)), clamped; -20 when unknown
}

// ECM is the Empirical Conditional Method predictor (Zheng et al.): it
// buckets the conditioning variables (loss rate, RTT, available
// bandwidth) on log scales, keeps a bounded ring of observed throughputs
// per bucket plus an unconditional fallback ring, and predicts from the
// empirical distribution of the matching bucket — the median as the
// point forecast (HB interface) and native P10/P50/P90 as quantiles
// (QuantilePredictor interface), no residual wrapper needed.
//
// Like Regression, its outputs are guarded: forecasts are drawn from
// observed (positive, finite) samples only, so no ≤0 or ±Inf value can
// reach rolling error windows or snapshots.
type ECM struct {
	cfg ECMConfig

	cond    ecmKey
	hasCond bool

	buckets map[ecmKey]*Ring
	global  Ring

	scratch []float64
}

// NewECM returns an Empirical Conditional Method predictor.
func NewECM(cfg ECMConfig) *ECM {
	cfg = cfg.defaults()
	return &ECM{
		cfg:     cfg,
		buckets: make(map[ecmKey]*Ring),
		global:  MakeRing(cfg.GlobalCap),
		scratch: make([]float64, 0, max(cfg.BucketCap, cfg.GlobalCap)),
	}
}

// Name implements HB.
func (e *ECM) Name() string { return "ECM" }

// SetConditions supplies the conditioning measurements for subsequent
// Observe/Predict calls.
func (e *ECM) SetConditions(in FBInputs) {
	e.cond = bucketKey(in)
	e.hasCond = true
}

// Observe implements HB. Non-positive or non-finite samples are
// rejected so the retained distributions stay JSON-safe.
func (e *ECM) Observe(x float64) {
	if !isFinitePositive(x) {
		return
	}
	e.global.Push(x)
	if !e.hasCond {
		return
	}
	r := e.buckets[e.cond]
	if r == nil {
		r = e.newBucket()
		e.buckets[e.cond] = r
	}
	r.Push(x)
}

func (e *ECM) newBucket() *Ring {
	r := MakeRing(e.cfg.BucketCap)
	return &r
}

// ring returns the distribution Predict and PredictQuantiles draw from:
// the conditioning bucket when it has enough mass, else the global
// fallback.
func (e *ECM) ring() *Ring {
	if e.hasCond {
		if r := e.buckets[e.cond]; r != nil && r.Len() >= e.cfg.MinBucket {
			return r
		}
	}
	return &e.global
}

// Predict implements HB: the forecast is the empirical median of the
// selected distribution.
func (e *ECM) Predict() (float64, bool) {
	r := e.ring()
	if r.Len() == 0 {
		return 0, false
	}
	e.sortInto(r)
	return percentileSorted(e.scratch, 0.50), true
}

// PredictQuantiles implements QuantilePredictor.
func (e *ECM) PredictQuantiles() (Quantiles, bool) {
	r := e.ring()
	if r.Len() < residualMinSamples {
		return Quantiles{}, false
	}
	e.sortInto(r)
	return Quantiles{
		P10: percentileSorted(e.scratch, 0.10),
		P50: percentileSorted(e.scratch, 0.50),
		P90: percentileSorted(e.scratch, 0.90),
	}, true
}

func (e *ECM) sortInto(r *Ring) {
	e.scratch = append(e.scratch[:0], r.Unordered()...)
	insertionSort(e.scratch)
}

// Reset implements HB.
func (e *ECM) Reset() {
	e.buckets = make(map[ecmKey]*Ring)
	e.global.Reset()
	e.hasCond = false
}

// AppendState implements Stateful: the global ring, the bucket count,
// then each bucket's key (RTT, loss, avail-bw bins) and ring, in
// ascending key order so equal predictors encode identically. The
// standing conditions are not state: the serving layer re-derives them
// from its standing measurements.
func (e *ECM) AppendState(dst []float64) []float64 {
	dst = e.global.AppendState(dst)
	keys := make([]ecmKey, 0, len(e.buckets))
	for k := range e.buckets {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, ecmKey.compare)
	dst = append(dst, float64(len(keys)))
	for _, k := range keys {
		dst = append(dst, float64(k.RTT), float64(k.Loss), float64(k.ABW))
		dst = e.buckets[k].AppendState(dst)
	}
	return dst
}

// LoadState implements Stateful. Samples must be positive, and keys
// within the binning's range and strictly ascending.
func (e *ECM) LoadState(src []float64) ([]float64, error) {
	d := stateDecoder{src: src}
	d.ring(&e.global, true)
	// Each bucket takes at least four values: its key and its ring count.
	n := d.count(len(d.src) / 4)
	e.buckets = make(map[ecmKey]*Ring, n)
	var prev ecmKey
	for i := 0; i < n && d.err == nil; i++ {
		k := ecmKey{
			RTT:  int8(d.integer(-1, 12)),
			Loss: int8(d.integer(-5, 0)),
			ABW:  int8(d.integer(-20, 14)),
		}
		if i > 0 && prev.compare(k) >= 0 {
			d.fail("ECM bucket keys out of order")
		}
		r := e.newBucket()
		d.ring(r, true)
		e.buckets[k], prev = r, k
	}
	return d.result()
}

func (k ecmKey) compare(o ecmKey) int {
	return cmp.Or(cmp.Compare(k.RTT, o.RTT), cmp.Compare(k.Loss, o.Loss), cmp.Compare(k.ABW, o.ABW))
}

// bucketKey bins the conditioning variables on log scales.
func bucketKey(in FBInputs) ecmKey {
	var k ecmKey
	if in.RTT > 0 {
		k.RTT = clampInt8(int(math.Floor(math.Log2(in.RTT*1000))), 0, 12)
	} else {
		k.RTT = -1
	}
	if in.LossRate > 0 {
		k.Loss = clampInt8(int(math.Floor(math.Log10(in.LossRate))), -5, -1)
	}
	if in.AvailBw > 0 {
		k.ABW = clampInt8(int(math.Floor(math.Log2(in.AvailBw/1e6))), -4, 14)
	} else {
		k.ABW = -20
	}
	return k
}

func clampInt8(v, lo, hi int) int8 {
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return int8(v)
}
