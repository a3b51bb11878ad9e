package predsvc

import (
	"encoding/json"
	"fmt"
	"testing"
)

// roundTrip serializes a session the way the spill log and the handoff
// stream do and decodes it back.
func roundTrip(t *testing.T, s *Session) (*Session, []byte) {
	t.Helper()
	data, err := json.Marshal(s.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var ps PathSnapshot
	if err := json.Unmarshal(data, &ps); err != nil {
		t.Fatal(err)
	}
	back, err := decodeSession(s.path, s.cfg, ps)
	if err != nil {
		t.Fatalf("decode of a live session's snapshot: %v", err)
	}
	return back, data
}

// TestSpillFaultMidstreamByteIdentity guards the session codec's core
// invariant: a snapshot/restore cycle at any point of a path's life
// (exactly what a spill + fault-back or a handoff does) must leave every
// later predict response byte-identical to the uninterrupted session's,
// and the restored session must re-encode to the same bytes. The cut
// points sit before, just past and far past the point where every error
// window, history ring and LSO window has wrapped; the last one is past
// any bounded replay history, so only exact state passes it.
func TestSpillFaultMidstreamByteIdentity(t *testing.T) {
	const further = 100
	for _, seed := range []int64{7, 19, 23} {
		for _, cut := range []int{60, 129, 400} {
			t.Run(fmt.Sprintf("seed%d/cut%d", seed, cut), func(t *testing.T) {
				series := SyntheticSeries(1, cut+further, seed)[0]
				cfg := Config{Shards: 1, Capacity: 8}.withDefaults()
				live := newSession(series.Path, cfg)
				for k := 0; k < cut; k++ {
					live.SetMeasurement(series.Inputs[k])
					live.Observe(series.Throughputs[k])
				}
				faulted, data := roundTrip(t, live)
				if _, again := roundTrip(t, faulted); string(again) != string(data) {
					t.Fatalf("snapshot(restore(snapshot(s))) != snapshot(s):\n%s\n%s", again, data)
				}
				same := func(epoch int) {
					b1, _ := json.Marshal(live.Predict())
					b2, _ := json.Marshal(faulted.Predict())
					if string(b1) != string(b2) {
						t.Fatalf("diverged at epoch %d:\nlive    %s\nfaulted %s", epoch, b1, b2)
					}
				}
				same(cut)
				for k := cut; k < cut+further; k++ {
					for _, s := range []*Session{live, faulted} {
						s.SetMeasurement(series.Inputs[k])
						s.Observe(series.Throughputs[k])
					}
					same(k + 1)
				}
			})
		}
	}
}
