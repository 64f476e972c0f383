package loadgen

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/obs"
)

// fixedService answers every query in a constant duration.
func fixedService(d time.Duration) Service {
	return func(User) (time.Duration, error) { return d, nil }
}

func simulate(t *testing.T, cfg Config) Report {
	t.Helper()
	rep, err := Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return rep
}

// TestSimulateDeterministic is the seed contract: the same Config must yield
// a byte-identical Report, including every histogram percentile.
func TestSimulateDeterministic(t *testing.T) {
	for _, kind := range []string{Poisson, Bursty} {
		cfg := Config{
			Seed:     42,
			Sessions: 500,
			Rate:     50,
			Arrivals: ArrivalSpec{Kind: kind},
			Workers:  4,
			SLO:      SLO{P99: time.Second, Late: 500 * time.Millisecond},
			Service: func(u User) (time.Duration, error) {
				// Vary service time by user identity so scheduling bugs
				// would perturb the distribution.
				return time.Duration(1+u.ID%7) * 10 * time.Millisecond, nil
			},
		}
		a, err := json.Marshal(simulate(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(simulate(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: same seed produced different reports:\n%s\n%s", kind, a, b)
		}
	}
}

func TestSimulateSeedChangesRun(t *testing.T) {
	cfg := Config{
		Seed: 1, Sessions: 200, Rate: 100,
		Service: fixedService(5 * time.Millisecond),
	}
	a := simulate(t, cfg)
	cfg.Seed = 2
	b := simulate(t, cfg)
	if a.Horizon == b.Horizon && a.Latency.P99 == b.Latency.P99 {
		t.Error("different seeds produced an identical run")
	}
}

// TestSimulateAccounting checks the conservation laws of a run: every
// arrival's queries are issued, and issued = completed + errors + shed.
func TestSimulateAccounting(t *testing.T) {
	cfg := Config{
		Seed: 7, Sessions: 300, Rate: 200, Workers: 2,
		Service: func(u User) (time.Duration, error) {
			return 2 * time.Millisecond, nil
		},
	}
	rep := simulate(t, cfg)
	if rep.Sessions != 300 {
		t.Fatalf("sessions = %d, want 300", rep.Sessions)
	}
	if rep.Queries != rep.Completed+rep.Errors+rep.Shed {
		t.Errorf("queries %d != completed %d + errors %d + shed %d",
			rep.Queries, rep.Completed, rep.Errors, rep.Shed)
	}
	// Presets issue 5–20 queries per session.
	if rep.Queries < 5*rep.Sessions || rep.Queries > 20*rep.Sessions {
		t.Errorf("queries per session out of preset range: %d over %d sessions", rep.Queries, rep.Sessions)
	}
	if rep.Latency.Count != rep.Completed+rep.Errors {
		t.Errorf("latency samples %d != executed %d", rep.Latency.Count, rep.Completed+rep.Errors)
	}
}

// TestSimulateOpenLoop: with one worker and service time far above the
// arrival gap, latencies must grow with queue depth (late completions are
// measured, not dropped) and backlog must be visible.
func TestSimulateOpenLoop(t *testing.T) {
	cfg := Config{
		Seed: 3, Sessions: 50, Rate: 1000, Workers: 1,
		QueueCap: 1 << 20,
		// Think times of hours relative to the horizon would serialize
		// queries; compress them away so sessions hammer the queue.
		ThinkScale: 1e-6,
		Service:    fixedService(10 * time.Millisecond),
		SLO:        SLO{Late: 20 * time.Millisecond},
	}
	rep := simulate(t, cfg)
	if rep.MaxBacklog < 10 {
		t.Errorf("expected a deep backlog under 10x overload, got max %d", rep.MaxBacklog)
	}
	if rep.Late == 0 {
		t.Error("open loop under overload must count late completions")
	}
	if rep.Latency.P99 <= rep.QueueWait.P50 {
		t.Errorf("tail latency %v should dominate median queue wait %v", rep.Latency.P99, rep.QueueWait.P50)
	}
	// Open loop: total latency = queue wait + service time for every query.
	if got, want := rep.Latency.Max-rep.QueueWait.Max, 10*time.Millisecond; got != want {
		t.Errorf("max latency - max wait = %v, want the service time %v", got, want)
	}
}

// TestSimulateShed: a tiny queue bound under overload must shed rather than
// grow without bound, and shed queries fail the SLO.
func TestSimulateShed(t *testing.T) {
	cfg := Config{
		Seed: 3, Sessions: 50, Rate: 1000, Workers: 1,
		QueueCap:   8,
		ThinkScale: 1e-6,
		Service:    fixedService(10 * time.Millisecond),
	}
	rep := simulate(t, cfg)
	if rep.Shed == 0 {
		t.Fatal("QueueCap 8 under 10x overload must shed")
	}
	if rep.MaxBacklog > 8 {
		t.Errorf("backlog %d exceeded QueueCap 8", rep.MaxBacklog)
	}
	if rep.Pass {
		t.Error("a shedding run must not pass its SLO")
	}
}

func TestSimulateErrorsCounted(t *testing.T) {
	cfg := Config{
		Seed: 9, Sessions: 100, Rate: 100,
		Service: func(u User) (time.Duration, error) {
			if u.Query == 0 {
				return time.Millisecond, context.DeadlineExceeded
			}
			return time.Millisecond, nil
		},
	}
	rep := simulate(t, cfg)
	if rep.Errors != rep.Sessions {
		t.Errorf("errors = %d, want one per session (%d)", rep.Errors, rep.Sessions)
	}
	if rep.Pass {
		t.Error("a failing run must not pass")
	}
}

// TestSimulateMillionUsers is the scale contract: a million sessions in
// virtual time, bounded memory per user. Shortened under -short.
func TestSimulateMillionUsers(t *testing.T) {
	sessions := 1_000_000
	if testing.Short() {
		sessions = 100_000
	}
	cfg := Config{
		Seed: 11, Sessions: sessions, Rate: 2_000_000,
		Workers: 64, QueueCap: 1 << 20,
		ThinkScale: 1e-3,
		Service:    fixedService(20 * time.Microsecond),
	}
	start := time.Now()
	rep := simulate(t, cfg)
	if rep.Sessions != int64(sessions) {
		t.Fatalf("sessions = %d, want %d", rep.Sessions, sessions)
	}
	if rep.Queries < int64(5*sessions) {
		t.Errorf("queries = %d, want at least 5 per session", rep.Queries)
	}
	t.Logf("%d sessions, %d queries simulated in %v (horizon %v, max backlog %d)",
		rep.Sessions, rep.Queries, time.Since(start).Round(time.Millisecond), rep.Horizon.Round(time.Millisecond), rep.MaxBacklog)
}

// TestArrivalsMeanRate: both processes must deliver the configured mean rate
// over a long run (MMPP bursts redistribute load, not add it). The MMPP
// needs a long horizon: per-cycle arrival counts have std ≈ mean, so the
// observed rate converges only as 1/√cycles — 2M arrivals is ~2000 cycles.
func TestArrivalsMeanRate(t *testing.T) {
	const rate, n = 100.0, 2_000_000
	for _, kind := range []string{Poisson, Bursty} {
		spec, err := ArrivalSpec{Kind: kind}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		arr := newArrivals(spec, rate, newPrng(5, 0))
		var last int64
		for i := 0; i < n; i++ {
			last = arr.next()
		}
		got := float64(n) / (float64(last) / float64(time.Second))
		if math.Abs(got-rate)/rate > 0.05 {
			t.Errorf("%s: observed mean rate %.1f/s, want %.1f/s ±5%%", kind, got, rate)
		}
	}
}

// TestArrivalsBurstiness: the MMPP process must be visibly burstier than
// Poisson at the same mean rate (higher variance of per-window counts).
func TestArrivalsBurstiness(t *testing.T) {
	const rate, n = 100.0, 100_000
	window := int64(time.Second)
	varOf := func(kind string) float64 {
		spec, err := ArrivalSpec{Kind: kind}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		arr := newArrivals(spec, rate, newPrng(5, 0))
		counts := map[int64]float64{}
		var last int64
		for i := 0; i < n; i++ {
			last = arr.next()
			counts[last/window]++
		}
		windows := last/window + 1
		mean := float64(n) / float64(windows)
		var v float64
		for w := int64(0); w < windows; w++ {
			d := counts[w] - mean
			v += d * d
		}
		return v / float64(windows)
	}
	poisson, bursty := varOf(Poisson), varOf(Bursty)
	if bursty < 2*poisson {
		t.Errorf("MMPP window-count variance %.1f not clearly above Poisson's %.1f", bursty, poisson)
	}
}

func TestArrivalSpecValidation(t *testing.T) {
	if _, err := (ArrivalSpec{Kind: "weird"}).withDefaults(); err == nil {
		t.Error("unknown kind must be rejected")
	}
	// Factor 10 over a 50% burst share leaves a negative calm rate.
	bad := ArrivalSpec{Kind: Bursty, BurstFactor: 10, BurstDwell: time.Second, CalmDwell: time.Second}
	if _, err := bad.withDefaults(); err == nil {
		t.Error("impossible burst factor must be rejected")
	}
}

func TestConfigValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Simulate(ctx, Config{Sessions: 1, Rate: 1}); err == nil {
		t.Error("missing Service must be rejected")
	}
	if _, err := Simulate(ctx, Config{Rate: 1, Service: fixedService(0)}); err == nil {
		t.Error("zero Sessions must be rejected")
	}
	if _, err := Simulate(ctx, Config{Sessions: 1, Service: fixedService(0)}); err == nil {
		t.Error("zero Rate must be rejected")
	}
}

func TestSimulateContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{
		Seed: 1, Sessions: 100_000, Rate: 1000,
		Service: fixedService(time.Millisecond),
	}
	if _, err := Simulate(ctx, cfg); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestSimulatePublish: the run's totals must land in the obs scope under the
// closed load.* vocabulary.
func TestSimulatePublish(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		Seed: 4, Sessions: 50, Rate: 100,
		Obs:     obs.Scope{Metrics: reg},
		Service: fixedService(time.Millisecond),
	}
	rep := simulate(t, cfg)
	snap := reg.Snapshot()
	if got := snap.Counters[obs.MLoadQueries]; got != rep.Queries {
		t.Errorf("%s = %d, want %d", obs.MLoadQueries, got, rep.Queries)
	}
	if got := snap.Counters[obs.MLoadCompleted]; got != rep.Completed {
		t.Errorf("%s = %d, want %d", obs.MLoadCompleted, got, rep.Completed)
	}
	h, ok := snap.Histograms[obs.MLoadLatency]
	if !ok || h.Count != rep.Latency.Count {
		t.Errorf("%s count = %+v, want %d samples", obs.MLoadLatency, h, rep.Latency.Count)
	}
}
