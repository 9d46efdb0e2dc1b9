package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/coolsim"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples (10 beyond): %v", err)
	}
	if got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples (9 beyond) was not refused")
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples (9 beyond) was not refused")
	}
	if got, err := percentile(xs[:20], 0.5); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %g, %v; want 10", got, err)
	}
}

func TestPairedSelf(t *testing.T) {
	// Each round's parent is its child plus 2 ms, under a host load that
	// moves both: the per-round differences are exactly 2.
	child := []float64{10, 30, 11, 50, 12, 10, 40, 13}
	parent := make([]float64, len(child))
	for i, c := range child {
		parent[i] = c + 2
	}
	if self, ok := pairedSelf(parent, child); !ok || self != 2 {
		t.Errorf("pairedSelf = %g, %v; want 2, true", self, ok)
	}
	// The host slows down in round 4, between its child and its parent.
	// A difference of medians would read 31 − 10 = 21 ms; the paired
	// median is 1.
	if self, ok := pairedSelf([]float64{11, 11, 11, 31, 31, 31, 31}, []float64{10, 10, 10, 10, 30, 30, 30}); !ok || self != 1 {
		t.Errorf("pairedSelf = %g, %v; want 1, true", self, ok)
	}
	// A coin comes up heads 16 or more times in 20 with a chance of
	// 0.6 %, 15 or more with 2.1 %: 16 rounds of 20 with the parent
	// slower resolve, 15 do not.
	rounds := func(slower int) (parent, child []float64) {
		for i := range 20 {
			child = append(child, 10)
			if i < slower {
				parent = append(parent, 11)
			} else {
				parent = append(parent, 9)
			}
		}
		return parent, child
	}
	if _, ok := pairedSelf(rounds(16)); !ok {
		t.Error("16 of 20 rounds slower: not resolved")
	}
	for _, slower := range []int{15, 10, 0} {
		if self, ok := pairedSelf(rounds(slower)); ok {
			t.Errorf("%d of 20 rounds slower: resolved as %g", slower, self)
		}
	}
	if _, ok := pairedSelf(nil, nil); ok {
		t.Error("no rounds: resolved")
	}
	// The tail of 20 tosses, against the binomial table.
	for _, c := range []struct {
		k    int
		want float64
	}{{0, 1}, {10, 0.5880985}, {15, 0.0206947}, {16, 0.0059090}, {20, 1.0 / (1 << 20)}} {
		if got := coinTail(20, c.k); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("coinTail(20, %d) = %.7f, want %.7f", c.k, got, c.want)
		}
	}
}

func TestCheckRejectsPerturbedReport(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	sc := interactiveScenario(1)
	r, err := coolsim.Run(bg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.check(sc, r); err != nil {
		t.Fatalf("unperturbed report: %v", err)
	}
	perturb := []struct {
		name  string
		apply func(*coolsim.Report)
		ok    bool
	}{
		{"one more migration", func(r *coolsim.Report) { r.Migrations++ }, false},
		{"one fewer sample", func(r *coolsim.Report) { r.Samples-- }, false},
		{"one more refit", func(r *coolsim.Report) { r.Refits++ }, false},
		{"max temperature 1e-5 off", func(r *coolsim.Report) { r.MaxTempC *= 1 + 1e-5 }, false},
		{"total energy 1e-5 off", func(r *coolsim.Report) { r.TotalEnergyJ *= 1 - 1e-5 }, false},
		{"mean temperature 1e-8 off", func(r *coolsim.Report) { r.MeanTempC *= 1 + 1e-8 }, true},
	}
	for _, p := range perturb {
		bad := *r
		p.apply(&bad)
		if err := ref.check(sc, &bad); (err == nil) != p.ok {
			t.Errorf("%s: check error %v, want ok=%v", p.name, err, p.ok)
		}
	}
	other := sc
	other.Seed = interactiveSeeds + 1
	if err := ref.check(other, r); err == nil {
		t.Error("a scenario outside the pools was accepted")
	}
}

// TestDrawsStayInReference checks that every scenario the seeded
// generators draw has a recorded reference.
func TestDrawsStayInReference(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(referenceScenarios()) {
		t.Errorf("reference has %d scenarios, the pools %d", len(ref), len(referenceScenarios()))
	}
	has := func(sc coolsim.Scenario) {
		t.Helper()
		if _, ok := ref[scenarioKey(sc)]; !ok {
			t.Fatalf("no reference for drawn scenario %s", scenarioKey(sc))
		}
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, sc := range sweepBatch(rng) {
			has(sc)
		}
		for _, sc := range bulkCampaign(rng) {
			has(sc)
		}
		has(paperResScenario(1 + rng.Int63n(paperResTraceSeeds)))
		has(interactiveScenario(1 + rng.Int63n(interactiveSeeds)))
	}
	for _, sc := range serviceShapes() {
		has(sc)
	}
	if b := sweepBatch(rand.New(rand.NewSource(1))); len(b) <= workers {
		t.Errorf("a sweep batch has %d scenarios, want more than the %d workers", len(b), workers)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the workloads
// and metrics perfbench prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadFuncs) {
		t.Errorf("BENCHMARK.json has %d workloads, perfbench %d", len(bj.Workloads), len(workloadFuncs))
	}
	for _, w := range bj.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in perfbench", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, perfbench %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEndMetrics)
	same("per_layer", bj.PerLayer, perLayerMetrics)
}
