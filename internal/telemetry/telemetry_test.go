package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"slb/internal/metrics"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs_total", L("algo", "D-C"))
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Same (name, labels) in any order returns the same handle.
	c2 := r.Counter("msgs_total", L("algo", "D-C"))
	if c2 != c {
		t.Fatal("re-registration returned a different counter handle")
	}
	g := r.Gauge("depth", L("plane", "ring"), L("edge", "data"))
	g.Set(7)
	g.Add(0.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", got)
	}
	g2 := r.Gauge("depth", L("edge", "data"), L("plane", "ring"))
	if g2 != g {
		t.Fatal("label order changed handle identity")
	}

	snap := r.Snapshot()
	if v := snap.Value("msgs_total", L("algo", "D-C")); v != 42 {
		t.Fatalf("snapshot counter = %v, want 42", v)
	}
	if v := snap.Value("depth", L("plane", "ring"), L("edge", "data")); v != 7.5 {
		t.Fatalf("snapshot gauge = %v, want 7.5", v)
	}
	if _, ok := snap.Get("missing"); ok {
		t.Fatal("Get on missing series returned ok")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x")
}

func TestGaugeFuncReplaceAndCollect(t *testing.T) {
	r := NewRegistry()
	v := 3.0
	r.GaugeFunc("live", func() float64 { return v })
	if got := r.Snapshot().Value("live"); got != 3 {
		t.Fatalf("gauge func = %v, want 3", got)
	}
	// Re-binding to fresh run state replaces the collector.
	r.GaugeFunc("live", func() float64 { return 9 })
	if got := r.Snapshot().Value("live"); got != 9 {
		t.Fatalf("replaced gauge func = %v, want 9", got)
	}
}

func TestHistogramBucketsAndDelta(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	before := r.Snapshot()
	m, ok := before.Get("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	wantCounts := []int64{2, 1, 1, 1} // <=1, <=2, <=4, +Inf
	if len(m.Buckets) != len(wantCounts) {
		t.Fatalf("bucket count = %d, want %d", len(m.Buckets), len(wantCounts))
	}
	for i, w := range wantCounts {
		if m.Buckets[i].Count != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, m.Buckets[i].Count, w)
		}
	}
	if m.Count != 5 || m.Sum != 106 {
		t.Fatalf("count/sum = %d/%v, want 5/106", m.Count, m.Sum)
	}
	if !math.IsInf(m.Buckets[3].UpperBound, 1) {
		t.Fatal("last bucket bound should be +Inf")
	}

	h.Observe(1)
	h.Observe(8)
	d := r.Snapshot().Delta(before)
	dm, _ := d.Get("lat")
	if dm.Count != 2 || dm.Sum != 9 {
		t.Fatalf("delta count/sum = %d/%v, want 2/9", dm.Count, dm.Sum)
	}
	if dm.Buckets[0].Count != 1 || dm.Buckets[3].Count != 1 {
		t.Fatalf("delta buckets = %+v", dm.Buckets)
	}
}

func TestDeltaCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	g := r.Gauge("depth")
	c.Add(10)
	g.Set(5)
	prev := r.Snapshot()
	c.Add(7)
	g.Set(3)
	d := r.Snapshot().Delta(prev)
	if v := d.Value("n"); v != 7 {
		t.Fatalf("counter delta = %v, want 7", v)
	}
	// Gauges pass through as current values, not differences.
	if v := d.Value("depth"); v != 3 {
		t.Fatalf("gauge in delta = %v, want 3", v)
	}
}

// TestConcurrentHammer drives N goroutines into shared counters,
// gauges, and histograms while a snapshotter reads concurrently, then
// asserts exact totals once writers quiesce. Run under -race in CI.
func TestConcurrentHammer(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10000
	)
	r := NewRegistry()
	c := r.Counter("hits")
	h := r.Histogram("vals", LinearBuckets(10, 10, 9))
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Background snapshotter: every snapshot must be internally
	// sane (monotone counter, bucket counts summing to Count).
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var lastHits float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			if v := s.Value("hits"); v < lastHits {
				snapErr = &nonMonotoneErr{prev: lastHits, cur: v}
				return
			} else {
				lastHits = v
			}
		}
	}()

	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := r.Gauge("per_goroutine_last") // shared handle on purpose
			rng := rand.New(rand.NewSource(int64(id)))
			for j := 0; j < perG; j++ {
				c.Inc()
				v := rng.Float64() * 100
				h.Observe(v)
				g.Set(v)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatalf("snapshot consistency: %v", snapErr)
	}

	s := r.Snapshot()
	if v := s.Value("hits"); v != goroutines*perG {
		t.Fatalf("hits = %v, want %d", v, goroutines*perG)
	}
	m, _ := s.Get("vals")
	if m.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", m.Count, goroutines*perG)
	}
	var bucketTotal int64
	for _, b := range m.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != m.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, m.Count)
	}
}

// TestRegisterDuringSnapshot registers fresh series of every kind from
// several goroutines while another snapshots in a loop: a snapshot must
// never observe a series whose handle is not yet set, nor race a
// GaugeFunc being re-bound. Run under -race in CI.
func TestRegisterDuringSnapshot(t *testing.T) {
	const (
		goroutines = 4
		perG       = 500
	)
	r := NewRegistry()
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				l := L("id", strconv.Itoa(id*perG+j))
				r.Counter("reg_counter", l).Inc()
				r.Gauge("reg_gauge", l).Set(float64(j))
				v := float64(j)
				r.GaugeFunc("reg_fn", func() float64 { return v }, l)
				// Re-bind a shared collector while snapshots read it.
				r.GaugeFunc("reg_fn_shared", func() float64 { return v })
				r.Histogram("reg_hist", LinearBuckets(1, 1, 4), l).Observe(v)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	s := r.Snapshot()
	for _, name := range []string{"reg_counter", "reg_gauge", "reg_fn", "reg_hist"} {
		n := 0
		for _, m := range s.Metrics {
			if m.Name == name {
				n++
			}
		}
		if n != goroutines*perG {
			t.Errorf("%s: %d series, want %d", name, n, goroutines*perG)
		}
	}
}

type nonMonotoneErr struct{ prev, cur float64 }

func (e *nonMonotoneErr) Error() string { return "counter went backwards" }

// TestHistogramQuantilesVsReservoir pins the bucket-interpolated
// quantile estimator against metrics.Quantiles (exact at these sizes)
// on known distributions: the estimate must land within one bucket
// width of the exact quantile.
func TestHistogramQuantilesVsReservoir(t *testing.T) {
	cases := []struct {
		name string
		gen  func(r *rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 1000 }},
		{"exponential-ish", func(r *rand.Rand) float64 { return math.Min(r.ExpFloat64()*120, 999) }},
		{"bimodal", func(r *rand.Rand) float64 {
			if r.Intn(2) == 0 {
				return 50 + r.Float64()*50
			}
			return 700 + r.Float64()*100
		}},
	}
	const width = 25.0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			h := reg.Histogram("v", LinearBuckets(width, width, 40))
			q := metrics.NewQuantiles(1 << 16)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 20000; i++ {
				v := tc.gen(rng)
				h.Observe(v)
				q.Add(v)
			}
			m, _ := reg.Snapshot().Get("v")
			for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
				got := m.Quantile(p)
				want := q.Quantile(p)
				if math.Abs(got-want) > width {
					t.Fatalf("q%.2f: histogram %.2f vs reservoir %.2f (> one bucket width %v apart)",
						p, got, want, width)
				}
			}
		})
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("v", []float64{1, 2})
	m, _ := reg.Snapshot().Get("v")
	if !math.IsNaN(m.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	h.Observe(100) // overflow bucket only
	m, _ = reg.Snapshot().Get("v")
	if got := m.Quantile(0.5); got != 2 {
		t.Fatalf("overflow-only quantile = %v, want lower bound 2", got)
	}
	c, _ := Snapshot{}.Get("nope")
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Fatal("missing metric quantile should be NaN")
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs_total", L("algo", "W-C")).Add(5)
	r.Gauge("depth").Set(2.5)
	h := r.Histogram("lat_us", []float64{10, 100})
	h.Observe(7)
	h.Observe(50)

	var txt bytes.Buffer
	if err := r.Snapshot().WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{
		"msgs_total{algo=W-C} 5",
		"depth 2.5",
		"lat_us_bucket{le=10} 1",
		"lat_us_bucket{le=100} 2",
		"lat_us_bucket{le=+Inf} 2",
		"lat_us_sum 57",
		"lat_us_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text export missing %q in:\n%s", want, out)
		}
	}

	var js bytes.Buffer
	if err := r.Snapshot().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(js.Bytes(), &round); err != nil {
		t.Fatalf("json round-trip: %v", err)
	}
	if v := round.Value("msgs_total", L("algo", "W-C")); v != 5 {
		t.Fatalf("json round-trip counter = %v, want 5", v)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(2, 2, 3)
	if lin[0] != 2 || lin[1] != 4 || lin[2] != 6 {
		t.Fatalf("LinearBuckets = %v", lin)
	}
	exp := ExpBuckets(1, 4, 4)
	if exp[3] != 64 {
		t.Fatalf("ExpBuckets = %v", exp)
	}
}
