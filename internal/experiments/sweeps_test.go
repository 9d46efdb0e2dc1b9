package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestInletSweepShape(t *testing.T) {
	o := QuickOptions()
	o.Duration = 10
	rows, err := InletSweep(context.Background(), o, "Web-med", []float64{50, 70})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	cold, warm := rows[0], rows[1]
	// A cold inlet trivially holds full load; settings sit at minimum
	// and savings saturate at the max-to-min pump power ratio.
	if !cold.FullLoadFeasible {
		t.Error("50 °C inlet should be feasible at full load")
	}
	if cold.MeanSetting > warm.MeanSetting {
		t.Errorf("cold inlet mean setting %v above warm %v", cold.MeanSetting, warm.MeanSetting)
	}
	if cold.CoolingSavedPct < warm.CoolingSavedPct-1 {
		t.Errorf("cold inlet savings %v below warm %v", cold.CoolingSavedPct, warm.CoolingSavedPct)
	}
	// Both keep the target (Web-med is feasible everywhere).
	for _, r := range rows {
		if r.MaxTemp > 81 {
			t.Errorf("inlet %v: Tmax %v", r.InletC, r.MaxTemp)
		}
	}
}

func TestInletSweepUnknownWorkload(t *testing.T) {
	if _, err := InletSweep(context.Background(), QuickOptions(), "bogus", []float64{70}); err == nil {
		t.Error("expected error")
	}
}

func TestWriteInletSweep(t *testing.T) {
	o := QuickOptions()
	o.Duration = 8
	rows, err := InletSweep(context.Background(), o, "gzip", []float64{70})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteInletSweep(&buf, "gzip", rows)
	if !strings.Contains(buf.String(), "INLET SWEEP") {
		t.Error("missing title")
	}
}
