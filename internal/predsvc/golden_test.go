package predsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// goldenPredictDigest is the sha256 over every predict body of
// goldenPredictRun. It pins the behaviour of uninterrupted sessions: the
// run is long enough (400 epochs) that every error window, history ring
// and LSO window wraps many times, so any change to how a predictor
// accumulates, evicts or selects shows up here. Re-pin it only for an
// intended behaviour change, and say so in the change log.
const goldenPredictDigest = "b785c0d861a6127ee30a49da9ff92daefc5619dc95b3b309861dde78aa5d9871"

// goldenPredictRun drives a fixed synthetic workload through an
// in-process registry — measure, observe, predict for every path and
// epoch — and returns the sha256 of the concatenated predict bodies.
func goldenPredictRun(t *testing.T) string {
	t.Helper()
	reg := NewRegistry(Config{})
	h := sha256.New()
	series := SyntheticSeries(4, 400, 11)
	for e := 0; e < 400; e++ {
		for _, s := range series {
			sess := reg.GetOrCreate(s.Path)
			sess.SetMeasurement(s.Inputs[e])
			sess.Observe(s.Throughputs[e])
			body, err := json.Marshal(sess.Predict())
			if err != nil {
				t.Fatal(err)
			}
			h.Write(body)
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenPredictDigest(t *testing.T) {
	if got := goldenPredictRun(t); got != goldenPredictDigest {
		t.Fatalf("predict digest %s, want %s", got, goldenPredictDigest)
	}
}
