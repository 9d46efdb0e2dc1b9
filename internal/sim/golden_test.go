package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the fixed-stepper golden files")

// goldenCases is the scenario matrix pinned by the byte-identical golden
// files: every cooling mode, every policy, both stacks, DPM on and off.
func goldenCases() []struct {
	Name    string
	Layers  int
	Cooling CoolingMode
	Policy  sched.Policy
	Bench   string
	DPM     bool
} {
	return []struct {
		Name    string
		Layers  int
		Cooling CoolingMode
		Policy  sched.Policy
		Bench   string
		DPM     bool
	}{
		{"2l_var_talb_webmed", 2, LiquidVar, sched.TALB, "Web-med", false},
		{"2l_air_lb_gzip", 2, Air, sched.LB, "gzip", false},
		{"4l_max_mig_webhigh", 4, LiquidMax, sched.Migration, "Web-high", false},
		{"2l_var_talb_webdb_dpm", 2, LiquidVar, sched.TALB, "Web&DB", true},
	}
}

func goldenConfig(t *testing.T, c struct {
	Name    string
	Layers  int
	Cooling CoolingMode
	Policy  sched.Policy
	Bench   string
	DPM     bool
}) Config {
	t.Helper()
	b, err := workload.ByName(c.Bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cooling = c.Cooling
	cfg.Policy = c.Policy
	cfg.Bench = b
	cfg.DPMEnabled = c.DPM
	cfg.Duration = 6
	cfg.Warmup = 1
	return onStack(t, cfg, c.Layers, 12, 10)
}

// runGolden executes one golden scenario with the given config and returns
// the full per-tick CSV trace (warm-up ticks included) plus the final
// Result as indented JSON.
func runGolden(t *testing.T, cfg Config) (trace []byte, report []byte) {
	t.Helper()
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := NewTraceRecorder(s, &buf)
	for s.Time() < cfg.Duration {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Record(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := json.MarshalIndent(s.Result(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), append(rep, '\n')
}

// TestFixedStepperGolden pins the default (fixed-tick) stepping loop to
// byte-identical golden files recorded from the pre-stepper monolithic
// Step: the stepper refactor must not change a single emitted byte when
// the Fixed engine is selected. Regenerate deliberately with
// `go test ./internal/sim -run TestFixedStepperGolden -update`.
func TestFixedStepperGolden(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.Name, func(t *testing.T) {
			cfg := goldenConfig(t, c)
			trace, report := runGolden(t, cfg)
			tracePath := filepath.Join("testdata", fmt.Sprintf("golden_%s.csv", c.Name))
			reportPath := filepath.Join("testdata", fmt.Sprintf("golden_%s.json", c.Name))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(tracePath, trace, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(reportPath, report, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantTrace, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			wantReport, err := os.ReadFile(reportPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(trace, wantTrace) {
				t.Errorf("per-tick trace diverged from the pre-stepper golden %s", tracePath)
			}
			if !bytes.Equal(report, wantReport) {
				t.Errorf("final report diverged from the pre-stepper golden %s", reportPath)
			}
		})
	}
}
