// Command tpgen generates a synthetic public transportation network in the
// library's text timetable format, or as a ready-to-serve snapshot.
//
// Usage:
//
//	tpgen -family losangeles -scale 1.0 -seed 42 -out la.tt
//	tpgen -family losangeles -preprocess 0.05 -o la.snap
//
// Families mirror the paper's five evaluation inputs: oahu, losangeles,
// washington (city bus grids) and germany, europe (railways).
//
// With -o, the network is written as a versioned snapshot container
// (docs/SNAPSHOT_FORMAT.md); add -preprocess to bake the transfer-station
// distance table in, so tpserver -snapshot boots query-ready in
// milliseconds with no preprocessing of its own.
//
// With -batch, tpgen builds a whole multi-network catalog directory for
// tpserver -catalog (docs/CATALOG.md) from a JSON config:
//
//	tpgen -batch fleet.json -dir ./catalog
//
//	{"default": "oahu",
//	 "networks": [
//	   {"name": "oahu", "family": "oahu", "scale": 0.25, "preprocess": 0.1},
//	   {"name": "losangeles", "family": "losangeles", "scale": 0.1}
//	 ]}
//
// Each entry generates (and optionally preprocesses) one network, writes
// <dir>/<name>.snap, and the run finishes by writing the catalog.json
// manifest naming them all.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"transit"
	"transit/internal/catalog"
)

func main() {
	family := flag.String("family", "oahu", "network family: oahu|losangeles|washington|germany|europe")
	scale := flag.Float64("scale", 1.0, "size multiplier (1.0 = laptop-friendly default)")
	seed := flag.Int64("seed", 0, "random seed (0 = family default)")
	out := flag.String("out", "", "timetable output file (default stdout)")
	snapOut := flag.String("o", "", "snapshot output file (versioned container; see docs/SNAPSHOT_FORMAT.md)")
	preprocess := flag.Float64("preprocess", 0, "with -o: transfer-station fraction for an embedded distance table (0 = none)")
	threads := flag.Int("threads", 1, "parallel workers for -preprocess")
	batch := flag.String("batch", "", "build a catalog directory from a JSON config (see docs/CATALOG.md)")
	dir := flag.String("dir", ".", "with -batch: catalog output directory")
	flag.Parse()

	if *batch != "" {
		if err := buildCatalog(*batch, *dir, *threads); err != nil {
			fail(err)
		}
		return
	}

	n, err := transit.Generate(*family, *scale, *seed)
	if err != nil {
		fail(err)
	}
	if *snapOut != "" {
		if *preprocess > 0 {
			start := time.Now()
			var ps *transit.PreprocessStats
			n, ps, err = n.Preprocess(transit.TransferSelection{Fraction: *preprocess}, transit.Options{Threads: *threads})
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "preprocessed %d transfer stations in %v (%.1f MiB table)\n",
				ps.TransferStations, time.Since(start).Round(time.Millisecond), float64(ps.TableBytes)/(1<<20))
		}
		f, err := os.Create(*snapOut)
		if err != nil {
			fail(err)
		}
		err = n.WriteSnapshot(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		if fi, err := os.Stat(*snapOut); err == nil {
			fmt.Fprintf(os.Stderr, "snapshot %s: %.1f MiB\n", *snapOut, float64(fi.Size())/(1<<20))
		}
		if *out == "" {
			fmt.Fprintln(os.Stderr, n.Stats())
			return
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := n.WriteTimetable(w); err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, n.Stats())
}

// batchConfig is the -batch input: the networks of the catalog and the
// default tenant (empty = first entry).
type batchConfig struct {
	Default  string         `json:"default,omitempty"`
	Networks []batchNetwork `json:"networks"`
}

type batchNetwork struct {
	Name       string  `json:"name"`
	Family     string  `json:"family"`
	Scale      float64 `json:"scale,omitempty"`      // 0 = 1.0
	Seed       int64   `json:"seed,omitempty"`       // 0 = family default
	Preprocess float64 `json:"preprocess,omitempty"` // transfer fraction; 0 = no table
}

// buildCatalog generates every network of the config, writes each as
// <dir>/<name>.snap, and finishes with the catalog.json manifest. Names
// are validated up front with the same grammar the serving catalog
// enforces, so a bad config fails before any generation work.
func buildCatalog(configPath, dir string, threads int) error {
	data, err := os.ReadFile(configPath)
	if err != nil {
		return err
	}
	var cfg batchConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return fmt.Errorf("%s: %w", configPath, err)
	}
	if len(cfg.Networks) == 0 {
		return fmt.Errorf("%s: no networks declared", configPath)
	}
	m := &catalog.Manifest{Default: cfg.Default}
	for i, bn := range cfg.Networks {
		if !catalog.ValidName(bn.Name) {
			return fmt.Errorf("%s: entry %d: invalid network name %q", configPath, i, bn.Name)
		}
		m.Networks = append(m.Networks, catalog.Entry{Name: bn.Name, Snapshot: bn.Name + ".snap"})
	}
	if _, err := catalog.ParseManifest(manifestJSON(m)); err != nil {
		return fmt.Errorf("%s: %w", configPath, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, bn := range cfg.Networks {
		scale := bn.Scale
		if scale == 0 {
			scale = 1.0
		}
		start := time.Now()
		n, err := transit.Generate(bn.Family, scale, bn.Seed)
		if err != nil {
			return fmt.Errorf("network %s: %w", bn.Name, err)
		}
		if bn.Preprocess > 0 {
			n, _, err = n.Preprocess(transit.TransferSelection{Fraction: bn.Preprocess},
				transit.Options{Threads: threads})
			if err != nil {
				return fmt.Errorf("network %s: %w", bn.Name, err)
			}
		}
		path := filepath.Join(dir, bn.Name+".snap")
		if err := writeSnapshotFile(n, path); err != nil {
			return fmt.Errorf("network %s: %w", bn.Name, err)
		}
		fi, _ := os.Stat(path)
		fmt.Fprintf(os.Stderr, "catalog %s: %s (%.1f MiB, %v)\n",
			bn.Name, n.Stats(), float64(fi.Size())/(1<<20), time.Since(start).Round(time.Millisecond))
	}
	if err := catalog.WriteManifest(dir, m); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "catalog manifest: %s (%d networks)\n",
		filepath.Join(dir, catalog.ManifestFile), len(m.Networks))
	return nil
}

// manifestJSON renders a manifest for pre-validation (WriteManifest does
// the same before touching disk; doing it first keeps generation work
// behind a valid config).
func manifestJSON(m *catalog.Manifest) []byte {
	data, err := json.Marshal(m)
	if err != nil {
		return nil
	}
	return data
}

func writeSnapshotFile(n *transit.Network, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = n.WriteSnapshot(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tpgen:", err)
	os.Exit(1)
}
