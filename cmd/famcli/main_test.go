package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	fam "github.com/regretlab/fam"
)

func TestRunGenerated(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-gen", "hotels", "-n", "100", "-k", "3", "-N", "500"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"selected 3 of 100", "avg regret ratio", "query time", "hotel-"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunFromCSV(t *testing.T) {
	ds, err := fam.Hotels(40, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hotels.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fam.SaveCSV(f, ds); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if err := run([]string{"-data", path, "-k", "2", "-N", "300"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "selected 2 of 40") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestRunAlgorithms(t *testing.T) {
	for _, algo := range []string{"greedy-shrink", "greedy-shrink-lazy", "k-hit", "sky-dom", "mrr-greedy", "brute-force", "greedy-add"} {
		var out bytes.Buffer
		err := run([]string{"-gen", "synthetic", "-n", "30", "-d", "3", "-k", "2", "-N", "200", "-algo", algo}, &out)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
	// DP needs d=2 and reports the exact value.
	var out bytes.Buffer
	err := run([]string{"-gen", "synthetic", "-n", "50", "-d", "2", "-corr", "spherical", "-k", "2", "-N", "300", "-algo", "dp"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "exact avg regret") {
		t.Fatalf("DP output missing exact value:\n%s", out.String())
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-gen", "hotels", "-n", "60", "-k", "3", "-N", "400", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var jr jsonResult
	if err := json.Unmarshal(out.Bytes(), &jr); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(jr.Indices) != 3 || len(jr.Labels) != 3 {
		t.Fatalf("JSON result %+v", jr)
	}
	if jr.ARR < 0 || jr.ARR > 1 || jr.Algorithm != "greedy-shrink" {
		t.Fatalf("JSON result %+v", jr)
	}
	if jr.ExactARR != nil {
		t.Fatal("sampled run must omit exact arr")
	}
	// DP run carries the exact value.
	out.Reset()
	err = run([]string{"-gen", "synthetic", "-d", "2", "-n", "60", "-corr", "spherical", "-k", "2", "-N", "400", "-algo", "dp", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var jr2 jsonResult
	if err := json.Unmarshal(out.Bytes(), &jr2); err != nil {
		t.Fatal(err)
	}
	if jr2.ExactARR == nil {
		t.Fatal("DP run must include exact arr")
	}
}

func TestRunCES(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-gen", "nba", "-n", "80", "-k", "3", "-N", "300", "-ces", "0.5"}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                   // no -data or -gen
		{"-gen", "unknown"},                  // bad generator
		{"-gen", "hotels", "-algo", "nope"},  // bad algorithm
		{"-gen", "synthetic", "-corr", "?"},  // bad correlation
		{"-data", "/does/not/exist.csv"},     // missing file
		{"-data", "x.csv", "-gen", "hotels"}, // both sources
		{"-gen", "hotels", "-k", "0"},        // bad k
		{"-gen", "hotels", "-ces", "NaN"},    // ces rho outside (0, 1]
		{"-gen", "hotels", "-ces", "-0.5"},   // ces rho outside (0, 1]
	}
	for i, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("case %d (%v) should error", i, args)
		}
	}
}

func TestParseAlgoRoundTrip(t *testing.T) {
	for _, a := range []fam.Algorithm{
		fam.GreedyShrink, fam.GreedyShrinkLazy, fam.GreedyShrinkNaive,
		fam.DP2D, fam.BruteForce, fam.MRRGreedy, fam.SkyDom, fam.KHit,
		fam.GreedyAdd,
	} {
		got, err := parseAlgo(a.String())
		if err != nil || got != a {
			t.Fatalf("parseAlgo(%q) = %v, %v", a.String(), got, err)
		}
	}
}

// -workers must change throughput only: the JSON selection (indices,
// labels, and every quality metric) is identical at any worker bound.
func TestRunWorkersDeterministic(t *testing.T) {
	outputs := make([]map[string]interface{}, 0, 3)
	for _, workers := range []string{"1", "4", "0"} {
		var out bytes.Buffer
		err := run([]string{"-gen", "synthetic", "-n", "120", "-d", "4", "-k", "4",
			"-N", "400", "-seed", "5", "-workers", workers, "-json"}, &out)
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		var res map[string]interface{}
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		// Timing fields are the only legitimate difference between runs.
		delete(res, "preprocess_seconds")
		delete(res, "query_seconds")
		outputs = append(outputs, res)
	}
	for i := 1; i < len(outputs); i++ {
		a, _ := json.Marshal(outputs[0])
		b, _ := json.Marshal(outputs[i])
		if string(a) != string(b) {
			t.Fatalf("worker bounds produced different selections:\n%s\n%s", a, b)
		}
	}
}
