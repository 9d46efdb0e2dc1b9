package main

import (
	"maps"
	"testing"
)

func TestParseExps(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	paper := set("tab1", "tab2", "tab3", "fig3", "fig5", "fig6", "fig7", "fig8")
	for _, tc := range []struct {
		list string
		want map[string]bool // nil: an error
	}{
		{"all", paper},
		{"fig6", set("fig6")},
		{" tab1 , fig3,fig8 ", set("tab1", "fig3", "fig8")},
		{"fig6x4,inlet", set("fig6x4", "inlet")},
		{"all,inlet", set("tab1", "tab2", "tab3", "fig3", "fig5", "fig6", "fig7", "fig8", "inlet")},
		{"fig6,fig6", set("fig6")},
		{"fig9", nil},
		{"fig6,bogus", nil},
		{"FIG6", nil},
		{"", nil},
		{"fig6,", nil},
	} {
		got, err := parseExps(tc.list)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseExps(%q) = %v, want an error", tc.list, got)
			}
			continue
		}
		if err != nil || !maps.Equal(got, tc.want) {
			t.Errorf("parseExps(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
		}
	}
}
