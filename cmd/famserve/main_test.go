package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/load"
)

func TestParseSpecs(t *testing.T) {
	cases := []struct {
		spec      string
		wantNames []string
		wantN     []int
		wantDim   []int
		wantErr   bool
	}{
		{spec: "hotels:200", wantNames: []string{"hotels"}, wantN: []int{200}, wantDim: []int{5}},
		{spec: "hotels", wantNames: []string{"hotels"}, wantN: []int{1000}, wantDim: []int{5}},
		{
			spec:      "hotels:100, catalog=synthetic:50:4:anticorrelated:9",
			wantNames: []string{"hotels", "catalog"},
			wantN:     []int{100, 50},
			wantDim:   []int{5, 4},
		},
		{spec: "a=hotels:50,b=hotels:60", wantNames: []string{"a", "b"}, wantN: []int{50, 60}, wantDim: []int{5, 5}},
		{spec: "synthetic:30:2", wantNames: []string{"synthetic"}, wantN: []int{30}, wantDim: []int{2}},
		{spec: "nba:64:2", wantNames: []string{"nba"}, wantN: []int{64}, wantDim: []int{15}},
		{spec: "", wantErr: true},
		{spec: "martian:10", wantErr: true},
		{spec: "hotels:notanumber", wantErr: true},
		{spec: "synthetic:10:3:sideways", wantErr: true},
		{spec: "hotels:10,hotels:20", wantErr: true}, // duplicate name
	}
	for _, tc := range cases {
		got, err := load.ParseDatasetSpecs(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseDatasetSpecs(%q) succeeded, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDatasetSpecs(%q): %v", tc.spec, err)
			continue
		}
		if len(got) != len(tc.wantNames) {
			t.Errorf("ParseDatasetSpecs(%q) = %d specs, want %d", tc.spec, len(got), len(tc.wantNames))
			continue
		}
		for i := range got {
			if got[i].Name != tc.wantNames[i] {
				t.Errorf("ParseDatasetSpecs(%q)[%d].Name = %q, want %q", tc.spec, i, got[i].Name, tc.wantNames[i])
			}
			if got[i].DS.N() != tc.wantN[i] {
				t.Errorf("ParseDatasetSpecs(%q)[%d].N = %d, want %d", tc.spec, i, got[i].DS.N(), tc.wantN[i])
			}
			if got[i].DS.Dim() != tc.wantDim[i] {
				t.Errorf("ParseDatasetSpecs(%q)[%d].Dim = %d, want %d", tc.spec, i, got[i].DS.Dim(), tc.wantDim[i])
			}
		}
	}
}

func TestBuildEngine(t *testing.T) {
	engine, infos, err := load.BuildEngine(fam.EngineConfig{Workers: 2}, "hotels:80,tiny=synthetic:30:3", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	if len(infos) != 2 {
		t.Fatalf("infos = %+v", infos)
	}
	names := []string{infos[0].Name, infos[1].Name}
	if strings.Join(names, ",") != "hotels,tiny" {
		t.Fatalf("names = %v", names)
	}
	for _, info := range infos {
		if info.Distribution == "" {
			t.Fatalf("missing distribution for %+v", info)
		}
	}
}

func TestBuildEngineBadSpec(t *testing.T) {
	if _, _, err := load.BuildEngine(fam.EngineConfig{}, "bogus:1", 0); err == nil {
		t.Fatal("bad spec must error")
	}
	for _, rho := range []float64{math.NaN(), -0.5, 2} {
		if _, _, err := load.BuildEngine(fam.EngineConfig{}, "hotels:80", rho); err == nil {
			t.Fatalf("-ces %v must error", rho)
		}
	}
}

// TestEngineConfigFlags: the cache-budget flags are MiB; 0 keeps the
// default budgets and a negative one leaves its caches unbounded.
func TestEngineConfigFlags(t *testing.T) {
	for _, tc := range []struct {
		prepMB, resMB        int64
		wantPrep, wantResult int64
	}{
		{0, 0, fam.DefaultPrepCacheBytes, fam.DefaultResultCacheBytes},
		{-1, -1, 0, 0},
		{2, 3, 2 << 20, 3 << 20},
	} {
		e := fam.NewEngine(engineConfig(1, tc.prepMB, tc.resMB))
		s := e.Stats()
		e.Close()
		if s.PoolWorkers != 1 || s.PrepCache.MaxBytes != tc.wantPrep ||
			s.ResultCache.MaxBytes != tc.wantResult || s.TrajectoryCache.MaxBytes != tc.wantResult {
			t.Errorf("-prep-cache-mb %d -result-cache-mb %d: workers %d, budgets prep %d, result %d, trajectory %d",
				tc.prepMB, tc.resMB, s.PoolWorkers, s.PrepCache.MaxBytes, s.ResultCache.MaxBytes, s.TrajectoryCache.MaxBytes)
		}
	}
}

// The -pprof-addr listener serves the standard pprof index and
// profiles on its explicit mux — and nothing else (the API routes must
// not leak onto the profiling listener).
func TestPprofHandler(t *testing.T) {
	srv := httptest.NewServer(pprofHandler())
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("API route on the pprof listener answered %d, want 404", resp.StatusCode)
	}
}
