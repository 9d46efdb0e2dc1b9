package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"

	"repro/coolsim"
)

// DecodeScenario parses one scenario JSON body exactly the way every
// service entry point must: over the service defaults
// (coolsim.DefaultScenario), with unknown fields rejected so a typoed
// knob fails loudly, and validated (including the fault-injection
// ranges) so a bad submission never reaches a worker.
func DecodeScenario(raw json.RawMessage) (coolsim.Scenario, error) {
	sc := coolsim.DefaultScenario()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, err
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	return sc, nil
}

// CanonicalScenario lowers a validated scenario to the canonical wire
// bytes journaled with the job (defaults materialized, stable field
// order — every retry of the job re-executes exactly these bytes) and
// the platform spec key that routes it on the worker ring.
// DecodeScenario of the bytes gives sc back exactly.
func CanonicalScenario(sc coolsim.Scenario) (raw json.RawMessage, specKey string, err error) {
	key, err := sc.PlatformKey()
	if err != nil {
		return nil, "", err
	}
	data, err := json.Marshal(sc)
	if err != nil {
		return nil, "", err
	}
	// omitempty drops a zero field, and decoding over the defaults would
	// restore a non-zero default in its place (seed 0, warmup 0): spell
	// such fields out after the marshaled ones.
	v, def := reflect.ValueOf(sc), reflect.ValueOf(coolsim.DefaultScenario())
	for i := 0; i < v.NumField(); i++ {
		name, opts, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		if !strings.Contains(opts, "omitempty") || !emptyJSON(v.Field(i)) || emptyJSON(def.Field(i)) {
			continue
		}
		val, err := json.Marshal(v.Field(i).Interface())
		if err != nil {
			return nil, "", err
		}
		if len(data) > 2 {
			data = append(data[:len(data)-1], ',')
		} else {
			data = data[:1]
		}
		data = append(append(append(data, `"`+name+`":`...), val...), '}')
	}
	return data, key, nil
}

// emptyJSON mirrors encoding/json's omitempty test for the scalar kinds
// a Scenario has.
func emptyJSON(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		return v.Float() == 0
	case reflect.String:
		return v.Len() == 0
	}
	return v.IsZero()
}
