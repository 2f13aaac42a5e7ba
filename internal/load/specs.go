package load

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	fam "github.com/regretlab/fam"
)

// DatasetSpec is one parsed dataset registration of the -datasets
// flag shared by cmd/famserve and cmd/famload.
type DatasetSpec struct {
	Name string
	DS   *fam.Dataset
}

// ParseDatasetSpecs parses a -datasets flag value: comma-separated
// entries of the form [name=]kind[:n[:seed]], with synthetic
// additionally taking [:d[:corr]] between n and seed:
// synthetic:n:d:corr:seed.
func ParseDatasetSpecs(s string) ([]DatasetSpec, error) {
	var out []DatasetSpec
	seen := map[string]bool{}
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name := ""
		if eq := strings.IndexByte(item, '='); eq >= 0 {
			name, item = item[:eq], item[eq+1:]
		}
		parts := strings.Split(item, ":")
		kind := parts[0]
		if name == "" {
			name = kind
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate dataset name %q (use name=kind:... to disambiguate)", name)
		}
		seen[name] = true
		ds, err := BuildDataset(kind, parts[1:])
		if err != nil {
			return nil, fmt.Errorf("dataset spec %q: %w", item, err)
		}
		out = append(out, DatasetSpec{Name: name, DS: ds})
	}
	if len(out) == 0 {
		return nil, errors.New("no datasets configured")
	}
	return out, nil
}

// BuildDataset constructs one dataset from a spec kind and its
// colon-separated arguments.
func BuildDataset(kind string, args []string) (*fam.Dataset, error) {
	num := func(i, def int) (int, error) {
		if i >= len(args) || args[i] == "" {
			return def, nil
		}
		return strconv.Atoi(args[i])
	}
	if kind == "synthetic" {
		n, err := num(0, 1000)
		if err != nil {
			return nil, err
		}
		d, err := num(1, 6)
		if err != nil {
			return nil, err
		}
		corr := fam.Independent
		if len(args) > 2 && args[2] != "" {
			switch args[2] {
			case "independent":
				corr = fam.Independent
			case "correlated":
				corr = fam.Correlated
			case "anticorrelated":
				corr = fam.Anticorrelated
			case "spherical":
				corr = fam.Spherical
			default:
				return nil, fmt.Errorf("unknown correlation %q", args[2])
			}
		}
		seed, err := num(3, 1)
		if err != nil {
			return nil, err
		}
		return fam.Synthetic(n, d, corr, uint64(seed))
	}

	n, err := num(0, 1000)
	if err != nil {
		return nil, err
	}
	seed, err := num(1, 1)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "hotels":
		return fam.Hotels(n, uint64(seed))
	case "nba":
		return fam.SimulatedNBA(n, uint64(seed))
	case "nba22":
		return fam.SimulatedNBA22(n, uint64(seed))
	case "household":
		return fam.SimulatedHousehold(n, uint64(seed))
	case "forestcover":
		return fam.SimulatedForestCover(n, uint64(seed))
	case "uscensus":
		return fam.SimulatedUSCensus(n, uint64(seed))
	default:
		return nil, fmt.Errorf("unknown dataset kind %q (want hotels|nba|nba22|household|forestcover|uscensus|synthetic)", kind)
	}
}

// BuildEngine constructs an engine and registers every dataset of the
// spec string under a uniform-linear (or, with ces > 0, CES)
// distribution — the shared startup path of famserve and famload.
func BuildEngine(cfg fam.EngineConfig, specs string, ces float64) (*fam.Engine, []fam.DatasetInfo, error) {
	regs, err := ParseDatasetSpecs(specs)
	if err != nil {
		return nil, nil, err
	}
	engine := fam.NewEngine(cfg)
	for _, reg := range regs {
		var dist fam.Distribution
		if ces != 0 {
			dist, err = fam.CESUniform(reg.DS.Dim(), ces)
		} else {
			dist, err = fam.UniformLinear(reg.DS.Dim())
		}
		if err != nil {
			engine.Close()
			return nil, nil, err
		}
		if err := engine.Register(reg.Name, reg.DS, dist); err != nil {
			engine.Close()
			return nil, nil, fmt.Errorf("registering %q: %w", reg.Name, err)
		}
	}
	return engine, engine.Datasets(), nil
}
