package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzScenarioCanonical pins the contract every queued job relies on:
// the daemon executes the canonical bytes, not the decoded submission,
// so for any body DecodeScenario accepts, the canonical bytes must
// decode back to the same scenario, and canonicalizing again must give
// the same bytes and platform key.
func FuzzScenarioCanonical(f *testing.F) {
	for _, body := range []string{
		quickScenario,
		`{}`,
		`{"seed":0,"warmup":0}`,
		`{"workload":"gzip","cooling":"max","policy":"lb","layers":4,"dpm":true}`,
		`{"stepping":{"mode":"adaptive","tolerance_c":0.05},"faults":{"sensor_dropout_prob":0.1}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sc, err := DecodeScenario(body)
		if err != nil {
			return
		}
		raw, key, err := CanonicalScenario(sc)
		if err != nil {
			return // a platform the key cannot describe; Submit rejects it too
		}
		back, err := DecodeScenario(raw)
		if err != nil {
			t.Fatalf("canonical bytes %s rejected: %v", raw, err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("round trip changed the scenario:\n body %s\n canon %s\n got  %+v\n want %+v", body, raw, back, sc)
		}
		raw2, key2, err := CanonicalScenario(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, raw2) || key != key2 {
			t.Fatalf("canonicalization not idempotent:\n%s (%s)\n%s (%s)", raw, key, raw2, key2)
		}
		if !json.Valid(raw) {
			t.Fatalf("canonical bytes are not JSON: %s", raw)
		}
	})
}
