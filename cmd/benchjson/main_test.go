package main

import "testing"

func TestModelName(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"processor\t: 0\nvendor_id\t: GenuineIntel\nmodel\t\t: 85\nmodel name\t: Intel(R) Xeon(R) Processor\nstepping\t: 7\n" +
			"processor\t: 1\nmodel name\t: Other\n", "Intel(R) Xeon(R) Processor"},
		{"processor\t: 0\nmodel\t\t: 85\n", ""},
		{"", ""},
	} {
		if got := modelName(c.in); got != c.want {
			t.Errorf("modelName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
