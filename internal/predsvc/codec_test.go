package predsvc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/predsvc/store"
)

// nanSentinel stands in for NaN while a record is marshalled (encoding/json
// refuses NaN) and is then rewritten to a literal NaN, the way a foreign
// writer or a damaged stream could present one.
const nanSentinel = 1.2345678901234567e300

// malformedRecord is a path's JSON record with one family's state broken.
type malformedRecord struct {
	name   string
	mutate func(state []float64) []float64
}

var malformedRecords = []malformedRecord{
	{"truncated", func(st []float64) []float64 { return st[:len(st)-1] }},
	{"NaN", func(st []float64) []float64 { st[len(st)/2] = nanSentinel; return st }},
	{"out-of-range count", func(st []float64) []float64 { st[0] = -1; return st }}, // the LSO shift count
}

// liveSnapshot returns the snapshot of a session that absorbed epochs
// observations of a synthetic path.
func liveSnapshot(path string, epochs int) PathSnapshot {
	s := newSession(path, Config{}.withDefaults())
	series := SyntheticSeries(1, epochs, 3)[0]
	for k := 0; k < epochs; k++ {
		s.SetMeasurement(series.Inputs[k])
		s.Observe(series.Throughputs[k])
	}
	return s.snapshot()
}

// encodeRecord marshals ps, turning nanSentinel into a NaN literal.
func encodeRecord(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.ReplaceAll(data, []byte("1.2345678901234567e+300"), []byte("NaN"))
}

// broken returns path's snapshot with m applied to its first family.
func broken(path string, m malformedRecord) PathSnapshot {
	ps := liveSnapshot(path, 60)
	ps.Families[0].State = m.mutate(ps.Families[0].State)
	return ps
}

// TestDecodeSessionRejectsMalformedState: the session decoder itself,
// before any JSON, refuses each malformed vector (here the NaN is real).
func TestDecodeSessionRejectsMalformedState(t *testing.T) {
	cfg := Config{}.withDefaults()
	for _, m := range malformedRecords {
		ps := broken("p", m)
		for i, v := range ps.Families[0].State {
			if v == nanSentinel {
				ps.Families[0].State[i] = math.NaN()
			}
		}
		if _, err := decodeSession("p", cfg, ps); !errors.Is(err, predict.ErrBadState) {
			t.Errorf("%s: decodeSession err = %v, want ErrBadState", m.name, err)
		}
	}
	bad := liveSnapshot("p", 60)
	bad.Families[1].Errors[0] = 11 // past the default clamp of 10
	if _, err := decodeSession("p", cfg, bad); err == nil {
		t.Error("error outside the clamp accepted")
	}
	bad = liveSnapshot("p", 60)
	bad.CovIn = bad.CovTotal + 1
	if _, err := decodeSession("p", cfg, bad); err == nil {
		t.Error("coverage past its total accepted")
	}
	bad = liveSnapshot("p", 60)
	bad.FBInputs.LossRate = 2
	if _, err := decodeSession("p", cfg, bad); err == nil {
		t.Error("invalid measurements accepted")
	}
	// A missing family starts empty; the rest of the record still loads.
	ok := liveSnapshot("p", 60)
	ok.Families = ok.Families[1:]
	s, err := decodeSession("p", cfg, ok)
	if err != nil {
		t.Fatalf("record without its first family rejected: %v", err)
	}
	if p := s.Predict(); p.HB[0].Ready || p.Observations != 60 {
		t.Errorf("missing family not fresh: %+v", p.HB[0])
	}
}

// TestMalformedStateBootQuarantine: a checksummed snapshot file whose
// state does not validate is quarantined at boot, and the daemon starts
// empty.
func TestMalformedStateBootQuarantine(t *testing.T) {
	for _, m := range malformedRecords {
		t.Run(m.name, func(t *testing.T) {
			file := t.TempDir() + "/snap.json"
			snap := &Snapshot{Version: snapshotVersion, Paths: []PathSnapshot{
				liveSnapshot("good", 30), broken("bad", m),
			}}
			body := encodeRecord(t, snap)
			sum := sha256.Sum256(body)
			data := append(body, checksumPrefix+hex.EncodeToString(sum[:])+"\n"...)
			if err := os.WriteFile(file, data, 0o644); err != nil {
				t.Fatal(err)
			}
			srv := NewServer(Config{})
			st, err := srv.RestoreSnapshot(file)
			if err != nil {
				t.Fatalf("RestoreSnapshot: %v", err)
			}
			if st.Quarantined != file+".corrupt-1" || st.Paths != 0 || !errors.Is(st.Reason, ErrCorruptSnapshot) {
				t.Fatalf("RestoreStats = %+v, want quarantine and 0 paths", st)
			}
			if n := srv.Registry().Len(); n != 0 {
				t.Fatalf("registry holds %d paths after a rejected restore, want 0", n)
			}
		})
	}
}

// TestMalformedStateSpillFaultIn: a spill record whose state does not
// validate counts as a store error on fault-in, and the path comes back
// as a fresh session.
func TestMalformedStateSpillFaultIn(t *testing.T) {
	for _, m := range malformedRecords {
		t.Run(m.name, func(t *testing.T) {
			cfg := Config{Shards: 1, Capacity: 1}.withDefaults()
			codec := sessionCodec(cfg)
			// Spill "bad" as the malformed record, everything else intact.
			codec.Encode = func(e store.Entry) ([]byte, error) {
				if e.Path() == "bad" {
					return encodeRecord(t, broken("bad", m)), nil
				}
				return json.Marshal(e.(*Session).snapshot())
			}
			st, err := store.OpenSpill(store.SpillConfig{Mem: memConfig(cfg), Dir: t.TempDir(), Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			reg := NewRegistryOn(cfg, st)
			defer reg.Close()
			reg.GetOrCreate("bad").Observe(1e7)
			reg.GetOrCreate("other") // spills "bad"
			if ts := reg.TierStats(); ts.ColdPaths != 1 || ts.Errors != 0 {
				t.Fatalf("after spill: %+v, want 1 cold path and no errors", ts)
			}
			if _, ok := reg.Lookup("bad"); ok {
				t.Fatal("malformed record faulted in")
			}
			if ts := reg.TierStats(); ts.Errors != 1 {
				t.Fatalf("after fault-in: %+v, want 1 error", ts)
			}
			if n := reg.GetOrCreate("bad").Observations(); n != 0 {
				t.Fatalf("recreated session has %d observations, want a fresh one", n)
			}
		})
	}
}

// TestMalformedStateHandoffImport: an import stream carrying a record
// whose state does not validate is rejected — checksums intact — and
// nothing of it is installed.
func TestMalformedStateHandoffImport(t *testing.T) {
	for _, m := range malformedRecords {
		t.Run(m.name, func(t *testing.T) {
			dst := NewServer(Config{})
			ts := httptest.NewServer(dst.Handler())
			defer ts.Close()
			state := encodeRecord(t, broken("bad", m))
			sum := sha256.Sum256(state)
			recs := []HandoffRecord{{Path: "bad", Observations: 60, State: state, Sum: hex.EncodeToString(sum[:])}}
			if _, _, err := importSessions(context.Background(), &http.Client{}, ts.URL, recs); err == nil {
				t.Fatal("import of a malformed record succeeded")
			}
			if _, ok := dst.Registry().Peek("bad"); ok {
				t.Fatal("malformed record installed")
			}
		})
	}
}

// TestLSOGaugeCountsOneScreen: the LSO gauges report one screen per
// session — what a single predict.LSO counts on the same series — and
// keep reporting it across a spill and a fault-in, since the shift count
// is part of the session's exact state.
func TestLSOGaugeCountsOneScreen(t *testing.T) {
	srv, err := Open(Config{Shards: 1, Capacity: 1, SpillDir: t.TempDir(), Obs: obs.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := srv.Registry()
	series := SyntheticSeries(1, 300, 5)[0]
	ref := predict.NewLSO(predict.NewMA(10), reg.Config().LSO)
	sess := reg.GetOrCreate(series.Path)
	for _, x := range series.Throughputs {
		sess.Observe(x)
		ref.Observe(x)
	}
	if ref.Shifts == 0 {
		t.Fatal("series has no level shift; the gauge check proves nothing")
	}
	check := func(when string) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		exp := rec.Body.String()
		if got := sampleValue(t, exp, "predsvc_lso_shifts"); got != float64(ref.Shifts) {
			t.Errorf("%s: predsvc_lso_shifts = %v, one LSO counts %d", when, got, ref.Shifts)
		}
		if got := sampleValue(t, exp, "predsvc_lso_outliers"); got != float64(ref.Outliers) {
			t.Errorf("%s: predsvc_lso_outliers = %v, one LSO counts %d", when, got, ref.Outliers)
		}
	}
	check("hot")
	reg.GetOrCreate("other") // spills the series' path
	if ts := reg.TierStats(); ts.ColdPaths != 1 {
		t.Fatalf("path not spilled: %+v", ts)
	}
	check("spilled")
	if _, ok := reg.Lookup(series.Path); !ok {
		t.Fatal("fault-in failed")
	}
	check("faulted in")
}

// FuzzSessionRestore feeds arbitrary bytes to the session codec the spill
// log, the snapshot file and the handoff stream share. Decoding must
// never panic, a session it accepts must serve, and an accepted record
// must reach a fixpoint: re-encoding the restored session and decoding
// that gives the same bytes again.
func FuzzSessionRestore(f *testing.F) {
	for _, epochs := range []int{0, 1, 5, 60} {
		data, err := json.Marshal(liveSnapshot("seed", epochs))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	cfg := Config{}.withDefaults()
	codec := sessionCodec(cfg)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := codec.Decode("fuzz", data)
		if err != nil {
			return
		}
		e.(*Session).Predict()
		first, err := codec.Encode(e)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		again, err := codec.Decode("fuzz", first)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v\n%s", err, first)
		}
		second, err := codec.Encode(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("not a fixpoint:\n%s\n%s", first, second)
		}
		again.(*Session).Observe(1e7)
	})
}

// TestSpillConcurrentUpdatesNotLost: on a spill store squeezed to a few
// hot sessions, concurrent clients evict each other's sessions between a
// lookup and its update. No update may be lost with an evicted copy:
// every path must end exactly where a sequential replay leaves it.
func TestSpillConcurrentUpdatesNotLost(t *testing.T) {
	srv, err := Open(Config{Shards: 1, Capacity: 4, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const paths, epochs, workers = 40, 40, 8
	series := SyntheticSeries(paths, epochs, 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for e := 0; e < epochs; e++ {
				for p := w; p < paths; p += workers {
					path := []byte(series[p].Path)
					srv.reg.setMeasurement(path, series[p].Inputs[e])
					srv.reg.observe(path, series[p].Throughputs[e])
				}
			}
		}(w)
	}
	wg.Wait()
	for _, s := range series {
		ref := newSession(s.Path, srv.reg.Config())
		for e := 0; e < epochs; e++ {
			ref.SetMeasurement(s.Inputs[e])
			ref.Observe(s.Throughputs[e])
		}
		got, ok := srv.reg.Lookup(s.Path)
		if !ok {
			t.Fatalf("%s lost", s.Path)
		}
		b1, _ := json.Marshal(ref.Predict())
		b2, _ := json.Marshal(got.Predict())
		if string(b1) != string(b2) {
			t.Fatalf("%s diverged from its sequential replay:\n%s\n%s", s.Path, b2, b1)
		}
	}
	if srv.reg.TierStats().Spills == 0 {
		t.Fatal("nothing spilled; the test proves nothing")
	}
}
