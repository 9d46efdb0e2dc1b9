package stream

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/coolsim"
)

// FuzzStreamFrom fuzzes the `from` query parameter of the stream
// endpoints (ParseFrom) with arbitrary raw query strings: it must never
// panic; "", "0" and "latest" are the named positions; any other value
// is accepted exactly when it is an unsigned decimal that fits in 64
// bits, and otherwise refused with an error naming it and position 0.
func FuzzStreamFrom(f *testing.F) {
	for _, raw := range []string{
		"", "from=", "from=0", "from=latest", "from=42", "from=007",
		"from=18446744073709551615", "from=18446744073709551616",
		"from=-1", "from=+1", "from=1e3", "from=0x10", "from=%20", "from=%zz",
		"from=1&from=latest", "x=1", "from=LATEST",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{URL: &url.URL{RawQuery: raw}}
		q := r.URL.Query().Get("from")
		v, err := ParseFrom(r)
		switch {
		case q == "" || q == "0":
			if err != nil || v != 0 {
				t.Fatalf("from=%q: (%d, %v), want the whole ring (0)", q, v, err)
			}
		case q == "latest":
			if err != nil || v != Latest {
				t.Fatalf("from=latest: (%d, %v), want Latest", v, err)
			}
		case err != nil:
			if v != 0 || !strings.Contains(err.Error(), strconv.Quote(q)) {
				t.Fatalf("from=%q refused as (%d, %v), want 0 and an error naming it", q, v, err)
			}
			if isDecimal(q) && len(strings.TrimLeft(q, "0")) <= 19 {
				t.Fatalf("from=%q: a sequence number that fits in 64 bits was refused: %v", q, err)
			}
		default:
			if !isDecimal(q) {
				t.Fatalf("from=%q accepted as %d, but it is not an unsigned decimal", q, v)
			}
			if got, want := strconv.FormatUint(v, 10), cmp.Or(strings.TrimLeft(q, "0"), "0"); got != want {
				t.Fatalf("from=%q parsed as %d", q, v)
			}
		}
	})
}

// isDecimal reports whether s is a non-empty run of ASCII digits.
func isDecimal(s string) bool {
	return s != "" && strings.Trim(s, "0123456789") == ""
}

// FuzzAppendSample fuzzes the hand-written frame encoder against
// encoding/json: every frame is one line of valid JSON that decodes to
// the sample it was written from (non-finite floats, written as null,
// decode to 0), and for finite samples the bytes are exactly what
// json.Encoder writes. The layer slices come from 8-byte chunks of the
// byte inputs: no bytes give a nil slice, 1–7 bytes an empty one.
func FuzzAppendSample(f *testing.F) {
	f.Add(12.3, 81.25, 450.0, 95.5, 1.75, true, 3, int64(12), 2, floatBytes(80.1, 81.25), floatBytes(70.4, 72.9))
	f.Add(-0.1, 0.0, 0.0, 0.0, 0.0, false, -1, int64(0), 0, []byte(nil), []byte{0})
	f.Add(1e-7, 1e21, -1e-21, 2.5e-9, math.MaxFloat64, true, 4, int64(-5), 7, floatBytes(math.SmallestNonzeroFloat64), floatBytes(-0.0, 1e100))
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), 1.0, 2.0, false, 0, int64(1), 1, floatBytes(math.NaN(), 3), floatBytes(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, tm, tmax, flow, chip, pump float64, measured bool, setting int, migrations int64, refits int, layerMax, layerMean []byte) {
		smp := coolsim.Sample{
			Time: tm, Measured: measured, TmaxC: tmax,
			LayerMaxC: bytesFloats(layerMax), LayerMeanC: bytesFloats(layerMean),
			Setting: setting, FlowMLMin: flow, ChipPowerW: chip, PumpPowerW: pump,
			Migrations: migrations, Refits: refits,
		}
		frame := AppendSample(nil, &smp)
		if n := bytes.IndexByte(frame, '\n'); n != len(frame)-1 {
			t.Fatalf("frame is not one newline-terminated line: %q", frame)
		}
		var back coolsim.Sample
		dec := json.NewDecoder(bytes.NewReader(frame))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("frame %q does not decode: %v", frame, err)
		}
		want, finite := smp, true
		want.LayerMaxC, want.LayerMeanC = slices.Clone(smp.LayerMaxC), slices.Clone(smp.LayerMeanC)
		for _, p := range []*float64{&want.Time, &want.TmaxC, &want.FlowMLMin, &want.ChipPowerW, &want.PumpPowerW} {
			finite = zeroNonFinite(p) && finite
		}
		for _, vs := range [][]float64{want.LayerMaxC, want.LayerMeanC} {
			for i := range vs {
				finite = zeroNonFinite(&vs[i]) && finite
			}
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("frame %q decodes to\n %+v\nwant\n %+v", frame, back, want)
		}
		if !finite {
			return
		}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(&smp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, enc.Bytes()) {
			t.Fatalf("frame differs from encoding/json:\n got  %q\n want %q", frame, enc.Bytes())
		}
	})
}

// zeroNonFinite replaces a NaN or infinite *p by 0 (what its null
// decodes to) and reports whether *p was finite.
func zeroNonFinite(p *float64) bool {
	if math.IsNaN(*p) || math.IsInf(*p, 0) {
		*p = 0
		return false
	}
	return true
}

// bytesFloats reads b as little-endian float64 bits, 8 bytes each; an
// empty b gives nil and a trailing partial chunk is dropped.
func bytesFloats(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	vs := make([]float64, 0, len(b)/8)
	for ; len(b) >= 8; b = b[8:] {
		vs = append(vs, math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
	return vs
}

// floatBytes is the inverse of bytesFloats for seeding.
func floatBytes(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}
