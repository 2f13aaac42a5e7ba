package prom_test

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/regretlab/fam/internal/load"
	"github.com/regretlab/fam/internal/prom"
)

// TestLabelsEscaping: label values carry exactly the three escapes
// format 0.0.4 defines (backslash, double quote, newline); every other
// character, tabs and non-ASCII included, passes through verbatim.
func TestLabelsEscaping(t *testing.T) {
	for _, tc := range []struct{ v, want string }{
		{`a"b`, `{k="a\"b"}`},
		{`C:\x`, `{k="C:\\x"}`},
		{"a\nb", `{k="a\nb"}`},
		{"a\tb", "{k=\"a\tb\"}"},
		{"café→ü", `{k="café→ü"}`},
		{"", `{k=""}`},
	} {
		if got := prom.Labels("k", tc.v); got != tc.want {
			t.Errorf("Labels(k, %q) = %s, want %s", tc.v, got, tc.want)
		}
	}
	if got := prom.Labels(); got != "" {
		t.Errorf("Labels() = %q, want empty", got)
	}
	if got, want := prom.Labels("z", "1", "a", "2"), `{a="2",z="1"}`; got != want {
		t.Errorf("Labels sorts pairs: got %s, want %s", got, want)
	}
}

// TestWriterServe: one # HELP/# TYPE header per family however often
// it is declared, the 0.0.4 content type, and integral values rendered
// without an exponent.
func TestWriterServe(t *testing.T) {
	w := prom.NewWriter()
	w.Family("x_total", "counter", "Things.")
	w.Sample("x_total", prom.Labels("k", "a"), 3)
	w.Family("x_total", "counter", "Things.")
	w.Sample("x_total", prom.Labels("k", "b"), 0.5)
	rec := httptest.NewRecorder()
	w.Serve(rec)
	want := "# HELP x_total Things.\n# TYPE x_total counter\n" +
		"x_total{k=\"a\"} 3\nx_total{k=\"b\"} 0.5\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
}

// FuzzWriterParse: any valid-UTF-8 label value and any float64 sample
// round-trip through load.ParseMetrics — one sample, keyed by
// name+Labels, with the value preserved (NaN stays NaN) and the label
// text unescaping back to the input.
func FuzzWriterParse(f *testing.F) {
	f.Add("low", 1.0)
	f.Add(`a"b\c`, 0.25)
	f.Add("line\nbreak", math.Inf(-1))
	f.Add("tab\tand space ", math.NaN())
	f.Add("ü} 1\n# x", -1e300)
	f.Fuzz(func(t *testing.T, v string, value float64) {
		if !utf8.ValidString(v) {
			t.Skip()
		}
		w := prom.NewWriter()
		w.Family("m", "gauge", "Fuzzed.")
		w.Sample("m", prom.Labels("k", v), value)
		rec := httptest.NewRecorder()
		w.Serve(rec)
		samples, err := load.ParseMetrics(rec.Body)
		if err != nil {
			t.Fatalf("ParseMetrics: %v", err)
		}
		if len(samples) != 1 {
			t.Fatalf("parsed %d samples, want 1: %v", len(samples), samples)
		}
		key := "m" + prom.Labels("k", v)
		got, ok := samples[key]
		if !ok {
			t.Fatalf("sample key missing: want %q, got %v", key, samples)
		}
		if got != value && !(math.IsNaN(got) && math.IsNaN(value)) {
			t.Fatalf("value %v parsed back as %v", value, got)
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(key, `m{k="`), `"}`)
		if unescaped := unescape(quoted); unescaped != v {
			t.Fatalf("label %q unescapes to %q", v, unescaped)
		}
	})
}

// unescape reverses the three 0.0.4 label-value escapes.
func unescape(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				sb.WriteByte('\n')
			case '\\', '"':
				sb.WriteByte(s[i])
			default:
				sb.WriteString(s[i-1 : i+1])
			}
			continue
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
}
