package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"strconv"
	"testing"
)

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	rows, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("csv has %d rows", len(rows))
	}
	return rows
}

func TestFig3CSV(t *testing.T) {
	fig3, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig3CSV(&buf, fig3); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 6 { // header + 5 settings
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "setting" {
		t.Errorf("header = %v", rows[0])
	}
	// Power column parses and is monotone.
	prev := 0.0
	for _, r := range rows[1:] {
		p, err := strconv.ParseFloat(r[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Errorf("power not monotone at %v", r)
		}
		prev = p
	}
}

func TestFig5CSV(t *testing.T) {
	res, err := Fig5(context.Background(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig5CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	// Both stacks present.
	seen := map[string]bool{}
	for _, r := range rows[1:] {
		seen[r[0]] = true
	}
	if !seen["2"] || !seen["4"] {
		t.Errorf("stacks in csv: %v", seen)
	}
}

func TestCombosCSV(t *testing.T) {
	o := QuickOptions()
	o.Workloads = []string{"gzip"}
	o.Duration = 8
	fig6, err := Fig6(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := Fig8(fig6)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ComboCSV(&buf, fig8); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 6 { // header + 5 combos
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "policy" || rows[0][12] != "mean_response_s" {
		t.Errorf("header = %v", rows[0])
	}
	// Normalized perf parses to ~1 for the base row.
	perf, err := strconv.ParseFloat(rows[1][11], 64)
	if err != nil {
		t.Fatal(err)
	}
	if perf != 1 {
		t.Errorf("base norm perf = %v", perf)
	}
}

func TestFig6LayersExtension(t *testing.T) {
	o := QuickOptions()
	o.Workloads = []string{"gzip"}
	o.Duration = 8
	res, err := Fig6Layers(context.Background(), o, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 7 {
		t.Fatalf("combos = %d", len(res))
	}
	var buf bytes.Buffer
	WriteFig6Layers(&buf, 4, res)
	if !bytes.Contains(buf.Bytes(), []byte("4-layer system")) {
		t.Error("rendered extension missing title")
	}
}
