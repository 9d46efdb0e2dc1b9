package coolsim

import (
	"encoding/json"
	"errors"
	"math/big"
	"testing"
)

// FuzzSweepExpand: Expand of any sweep spec never panics, rejects with
// ErrSweepTooLarge exactly the grids whose true axis product exceeds the
// limit, and on success returns at most Count() ≤ limit members.
func FuzzSweepExpand(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"base":{"duration":5,"warmup":1},"layers":[2,4],"cooling":["max","air"],"workload":["gzip","Web-med"],"seeds":[1,2]}`,
		`{"cooling":["air","max","var"],"policy":["lb","talb"],"skip":[{"cooling":"air","policy":"talb"}]}`,
		`{"layers":[2,3],"skip":[{"layers":3}],"dpm":[true,false]}`,
		`{"seeds":[1,2,3],"max_scenarios":2}`,
	} {
		f.Add([]byte(body))
	}
	for _, seeds := range []int{128, 256} {
		body, err := json.Marshal(hugeSweep(seeds))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var sw Sweep
		if err := json.Unmarshal(body, &sw); err != nil {
			return
		}
		limit := int64(sw.MaxScenarios)
		if limit <= 0 {
			limit = DefaultSweepLimit
		}
		product := big.NewInt(1)
		for _, l := range []int{
			len(sw.Layers), len(sw.Cooling), len(sw.Policy), len(sw.Workload),
			len(sw.DPM), len(sw.ControlEvery), len(sw.Stepping), len(sw.Seeds),
		} {
			if l > 0 {
				product.Mul(product, big.NewInt(int64(l)))
			}
		}
		tooLarge := product.Cmp(big.NewInt(limit)) > 0
		n := sw.Count()
		if tooLarge && int64(n) <= limit || !tooLarge && int64(n) != product.Int64() {
			t.Fatalf("Count = %d for a product of %v under limit %d", n, product, limit)
		}
		if !tooLarge && n > 1<<14 {
			return // too many members to materialize per iteration
		}
		out, err := sw.Expand()
		if errors.Is(err, ErrSweepTooLarge) != tooLarge {
			t.Fatalf("Expand err = %v for a product of %v under limit %d", err, product, limit)
		}
		if err == nil && (len(out) > n || int64(n) > limit) {
			t.Fatalf("Expand = %d members, Count = %d, limit %d", len(out), n, limit)
		}
	})
}
