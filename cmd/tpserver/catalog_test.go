// Multi-tenant serving tests: the /v1/{network} routes, the per-tenant
// isolation property (a catalog server answers byte-identically to
// dedicated single-network servers), eviction under memory pressure while
// queries are in flight, and fuzzing of the network route surface.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"transit"
	"transit/internal/catalog"
	"transit/internal/live"
)

// halfPastNetwork is hourlyNetwork shifted by 30 minutes: trains leave A at
// h:30 and arrive B at h+1:00. Queries distinguish the two tenants by
// answer, not just by name.
func halfPastNetwork(t testing.TB) *transit.Network {
	t.Helper()
	tb := transit.NewTimetableBuilder(0)
	a := tb.AddStation("A", 2)
	b := tb.AddStation("B", 2)
	for h := 6; h <= 22; h++ {
		if err := tb.AddTrain(fmt.Sprintf("p%02d", h), []transit.StationID{a, b},
			transit.Ticks(h*60+30), []transit.Ticks{30}, 0); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// writeCatalogDir lays out a catalog directory: one snapshot per network
// plus the manifest.
func writeCatalogDir(t testing.TB, def string, nets map[string]*transit.Network) string {
	t.Helper()
	dir := t.TempDir()
	names := make([]string, 0, len(nets))
	for name := range nets {
		names = append(names, name)
	}
	sort.Strings(names)
	m := &catalog.Manifest{Default: def}
	for _, name := range names {
		path := filepath.Join(dir, name+".snap")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := nets[name].WriteSnapshot(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		m.Networks = append(m.Networks, catalog.Entry{Name: name, Snapshot: name + ".snap"})
	}
	if err := catalog.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	return dir
}

func catalogServerFor(t testing.TB, dir string, cfg catalog.Config) (*server, *http.ServeMux) {
	t.Helper()
	cfg.Live.Policy = live.ServeUnpruned
	cat, err := catalog.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cat.Close)
	s := newCatalogServer(cat, 1)
	return s, newMux(s)
}

// twoTenantServer is the standard fixture: tenants "aa" (hourly, default)
// and "bb" (half past), no memory pressure.
func twoTenantServer(t testing.TB) (*server, *http.ServeMux) {
	dir := writeCatalogDir(t, "aa", map[string]*transit.Network{
		"aa": hourlyNetwork(t),
		"bb": halfPastNetwork(t),
	})
	return catalogServerFor(t, dir, catalog.Config{})
}

// TestV1UnknownNetworkGolden pins the typed 404 for a name the manifest
// does not carry, on every route class that takes a {network} segment.
func TestV1UnknownNetworkGolden(t *testing.T) {
	_, mux := twoTenantServer(t)

	rec := get(t, mux, "/v1/nope/arrival?from=0&to=1&at=08:00")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown network status %d, want 404: %s", rec.Code, rec.Body.String())
	}
	assertErrorCode(t, rec, transit.CodeUnknownNetwork)
	want := canonical(t, `{"error":{"code":"unknown_network","message":"unknown network \"nope\"","field":"network"}}`)
	if got := normalizeV1(t, rec.Body.Bytes()); got != want {
		t.Fatalf("envelope mismatch\ngot:  %s\nwant: %s", got, want)
	}

	rec = get(t, mux, "/v1/nope/stations")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown network stations status %d", rec.Code)
	}
	assertErrorCode(t, rec, transit.CodeUnknownNetwork)

	// The delay route renders plain text, but shares the status mapping and
	// the typed code underneath.
	rec = post(t, mux, "/nope/delays", `{"ops":[{"train":"h08","delay_min":5}]}`)
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "unknown network") {
		t.Fatalf("unknown network delays: status %d body %q", rec.Code, rec.Body.String())
	}
}

// TestV1NetworkRoutesGolden pins the tenant-addressed routes: the default
// tenant answers /v1/aa/... identically to the un-prefixed /v1/..., and the
// second tenant answers with its own timetable.
func TestV1NetworkRoutesGolden(t *testing.T) {
	_, mux := twoTenantServer(t)

	// /v1/aa/arrival ≡ /v1/arrival (aa is the default network).
	direct := get(t, mux, "/v1/arrival?from=0&to=1&at=08:00")
	named := get(t, mux, "/v1/aa/arrival?from=0&to=1&at=08:00")
	if direct.Code != 200 || named.Code != 200 {
		t.Fatalf("statuses %d/%d: %s / %s", direct.Code, named.Code, direct.Body.String(), named.Body.String())
	}
	if d, n := normalizeV1(t, direct.Body.Bytes()), normalizeV1(t, named.Body.Bytes()); d != n {
		t.Fatalf("default-vs-named mismatch\n/v1/arrival:    %s\n/v1/aa/arrival: %s", d, n)
	}

	// bb's trains leave at half past: the 08:00 traveller arrives 09:00.
	want := canonical(t, `{"from":{"id":0,"name":"A"},"to":{"id":1,"name":"B"},"depart":"08:00","reachable":true,"arrive":"09:00","minutes":60,"query_ms":0}`)
	golden(t, get(t, mux, "/v1/bb/arrival?from=0&to=1&at=08:00"), 200, want)

	// POST bodies and the batch endpoint route per tenant too.
	golden(t, post(t, mux, "/v1/bb/arrival", `{"from":0,"to":1,"depart":"08:00"}`), 200, want)
	wantMatrix := canonical(t, `{"depart":"08:00","sources":[{"id":0,"name":"A"}],"targets":[{"id":1,"name":"B"}],"minutes":[[60]],"query_ms":0}`)
	golden(t, post(t, mux, "/v1/bb/matrix", `{"sources":[0],"targets":[1],"depart":"08:00"}`), 200, wantMatrix)

	// Stations are per-tenant but identical here (same two stations).
	s1 := get(t, mux, "/v1/stations")
	s2 := get(t, mux, "/v1/bb/stations")
	if normalizeV1(t, s1.Body.Bytes()) != normalizeV1(t, s2.Body.Bytes()) {
		t.Fatal("stations mismatch between tenants with identical station sets")
	}
}

// TestV1NetworksEndpoint pins GET /v1/networks: the full tenant list with
// default/residency markers, cold tenants listed without being loaded.
func TestV1NetworksEndpoint(t *testing.T) {
	_, mux := twoTenantServer(t)

	// Nothing queried yet: both tenants cold.
	rec := get(t, mux, "/v1/networks")
	want := canonical(t, `{"networks":[
		{"name":"aa","default":true,"resident":false,"epoch":0},
		{"name":"bb","resident":false,"epoch":0}
	]}`)
	golden(t, rec, 200, want)

	// A query makes aa resident; listing still must not load bb.
	get(t, mux, "/v1/aa/arrival?from=0&to=1&at=08:00")
	rec = get(t, mux, "/v1/networks")
	var out struct {
		Networks []struct {
			Name          string `json:"name"`
			Default       bool   `json:"default"`
			Resident      bool   `json:"resident"`
			Epoch         uint64 `json:"epoch"`
			SnapshotBytes int64  `json:"snapshot_bytes"`
		} `json:"networks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Networks) != 2 {
		t.Fatalf("networks: %+v", out.Networks)
	}
	if n := out.Networks[0]; n.Name != "aa" || !n.Default || !n.Resident || n.SnapshotBytes <= 0 {
		t.Fatalf("aa after query: %+v", n)
	}
	if n := out.Networks[1]; n.Name != "bb" || n.Default || n.Resident {
		t.Fatalf("bb must stay cold: %+v", n)
	}
}

// TestLegacyDefaultNetwork pins the compatibility contract: the un-prefixed
// routes serve the default tenant, with the same answers as before the
// catalog existed.
func TestLegacyDefaultNetwork(t *testing.T) {
	_, mux := twoTenantServer(t)

	// The default tenant aa is the hourly network: 08:00 → 08:30.
	if got := arrivalAt(t, mux, 0, 1, "08:00"); got != "08:30" {
		t.Fatalf("default answer %s, want 08:30 (aa)", got)
	}

	// Un-prefixed delays hit the default tenant only.
	rec := post(t, mux, "/delays", `{"ops":[{"train":"h08","delay_min":20}]}`)
	if rec.Code != 200 {
		t.Fatalf("delays status %d: %s", rec.Code, rec.Body.String())
	}
	var dresp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &dresp); err != nil {
		t.Fatal(err)
	}
	if dresp["network"] != "aa" || dresp["epoch"].(float64) != 1 {
		t.Fatalf("delays response %v", dresp)
	}
	if got := arrivalAt(t, mux, 0, 1, "08:00"); got != "08:50" {
		t.Fatalf("post-delay arrival %s, want 08:50", got)
	}
	// bb never saw the batch.
	rec = get(t, mux, "/v1/bb/arrival?from=0&to=1&at=08:00")
	var bb map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &bb); err != nil {
		t.Fatal(err)
	}
	if bb["arrive"] != "09:00" {
		t.Fatalf("bb after aa's delay: %v, want 09:00", bb["arrive"])
	}
}

// TestCatalogIsolationProperty is the tenant-isolation property test: a
// two-tenant catalog server, interleaving delay batches and queries across
// both tenants, must answer every query byte-identically to two dedicated
// single-network servers receiving the same traffic. Any cross-tenant bleed
// — shared epochs, shared cache entries, delays applied to the wrong
// timetable — breaks the byte equality.
func TestCatalogIsolationProperty(t *testing.T) {
	_, mux := twoTenantServer(t)
	_, dedicatedA := serverFor(t, hourlyNetwork(t))
	_, dedicatedB := serverFor(t, halfPastNetwork(t))

	// The same query set is re-asked after every mutation; cache entries
	// outliving an epoch bump would serve stale bytes.
	queries := []string{
		"/v1/%s/arrival?from=0&to=1&at=07:10",
		"/v1/%s/arrival?from=0&to=1&at=08:00",
		"/v1/%s/arrival?from=0&to=1&at=12:45",
		"/v1/%s/profile?from=0&to=1",
		"/v1/%s/pareto?from=0&to=1&depart=07:45&max_transfers=2",
	}
	check := func(step string) {
		t.Helper()
		for _, q := range queries {
			catA := get(t, mux, fmt.Sprintf(q, "aa"))
			catB := get(t, mux, fmt.Sprintf(q, "bb"))
			dedA := get(t, dedicatedA, strings.Replace(fmt.Sprintf(q, ""), "//", "/", 1))
			dedB := get(t, dedicatedB, strings.Replace(fmt.Sprintf(q, ""), "//", "/", 1))
			if catA.Code != dedA.Code || normalizeV1(t, catA.Body.Bytes()) != normalizeV1(t, dedA.Body.Bytes()) {
				t.Fatalf("%s: tenant aa diverged on %s\ncatalog:   %s\ndedicated: %s",
					step, q, catA.Body.String(), dedA.Body.String())
			}
			if catB.Code != dedB.Code || normalizeV1(t, catB.Body.Bytes()) != normalizeV1(t, dedB.Body.Bytes()) {
				t.Fatalf("%s: tenant bb diverged on %s\ncatalog:   %s\ndedicated: %s",
					step, q, catB.Body.String(), dedB.Body.String())
			}
		}
	}

	check("pristine")
	// Interleave: delay aa, query; delay bb, query; cancel on aa, query…
	// Every batch goes to the catalog tenant AND its dedicated twin.
	steps := []struct{ tenant, batch string }{
		{"aa", `{"ops":[{"train":"h08","delay_min":15}]}`},
		{"bb", `{"ops":[{"train":"p07","delay_min":5}]}`},
		{"aa", `{"ops":[{"train":"h12","cancel":true}]}`},
		{"bb", `{"ops":[{"train":"p12","delay_min":30}]}`},
		{"aa", `{"ops":[{"train":"h08","delay_min":10}]}`}, // accumulates on the first batch
		{"bb", `{"ops":[{"train":"p07","cancel":true}]}`},
	}
	for i, st := range steps {
		ded := dedicatedA
		if st.tenant == "bb" {
			ded = dedicatedB
		}
		r1 := post(t, mux, "/"+st.tenant+"/delays", st.batch)
		r2 := post(t, ded, "/delays", st.batch)
		if r1.Code != 200 || r2.Code != 200 {
			t.Fatalf("step %d: delay statuses %d/%d", i, r1.Code, r2.Code)
		}
		check(fmt.Sprintf("step %d (%s)", i, st.tenant))
	}

	// Epochs advanced independently: three batches each.
	rec := get(t, mux, "/v1/networks")
	var out struct {
		Networks []struct {
			Name  string `json:"name"`
			Epoch uint64 `json:"epoch"`
		} `json:"networks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	for _, n := range out.Networks {
		if n.Epoch != 3 {
			t.Errorf("tenant %s at epoch %d, want 3", n.Name, n.Epoch)
		}
	}
}

// TestCatalogEvictionRaceHTTP serves two tenants under a budget that fits
// only one, with concurrent clients hammering both: every request must
// succeed (evicted tenants reload transparently mid-traffic) and delay
// state must survive the churn. The CI race job runs this under -race.
func TestCatalogEvictionRaceHTTP(t *testing.T) {
	dir := writeCatalogDir(t, "aa", map[string]*transit.Network{
		"aa": hourlyNetwork(t),
		"bb": halfPastNetwork(t),
	})
	var budget int64
	for _, name := range []string{"aa", "bb"} {
		fi, err := os.Stat(filepath.Join(dir, name+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > budget {
			budget = fi.Size()
		}
	}
	s, mux := catalogServerFor(t, dir, catalog.Config{
		MemBytes:   budget + budget/4,
		PersistDir: t.TempDir(),
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Seed aa with a delay; its epoch must survive every eviction round.
	if rec := post(t, mux, "/aa/delays", `{"ops":[{"train":"h09","delay_min":5}]}`); rec.Code != 200 {
		t.Fatalf("seed delay: %d %s", rec.Code, rec.Body.String())
	}

	const (
		workers = 8
		rounds  = 30
	)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := srv.Client()
			for i := 0; i < rounds; i++ {
				tenant := [2]string{"aa", "bb"}[(w+i)%2]
				url := fmt.Sprintf("%s/v1/%s/arrival?from=0&to=1&at=09:00", srv.URL, tenant)
				resp, err := client.Get(url)
				if err != nil {
					errc <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				var out map[string]any
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					errc <- fmt.Errorf("worker %d %s: status %d err %v", w, tenant, resp.StatusCode, err)
					return
				}
				want := map[string]any{"aa": "09:35", "bb": "10:00"}[tenant]
				if out["arrive"] != want {
					errc <- fmt.Errorf("worker %d: %s answered %v, want %v", w, tenant, out["arrive"], want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	m := s.cat.Metrics()
	if m.Evictions == 0 {
		t.Error("no evictions under a one-tenant budget — the race saw no churn")
	}
	t.Logf("eviction churn: %d loads, %d evictions", m.Loads, m.Evictions)
}

// FuzzNetworkRoute throws hostile paths at the full mux: traversal attempts,
// encoded separators, absurd names. The server must answer every one with a
// controlled status — never a panic, never a 5xx.
func FuzzNetworkRoute(f *testing.F) {
	for _, seed := range []string{
		"/v1/aa/arrival?from=0&to=1&at=08:00",
		"/v1/bb/stations",
		"/v1/nope/arrival",
		"/v1/../arrival",
		"/v1/aa/../bb/arrival",
		"/v1//arrival",
		"/v1/%2e%2e/arrival",
		"/v1/aa%2Fdelays",
		"/aa/delays",
		"/" + strings.Repeat("x", 300) + "/delays",
		"/v1/aa/arrival/extra",
		"/v1/AA/arrival",
		"/v1/a\x00b/arrival",
	} {
		f.Add(seed)
	}
	_, mux := twoTenantServer(f)
	f.Fuzz(func(t *testing.T, path string) {
		// Bypass httptest.NewRequest's URL validation: hostile bytes go in
		// raw, exactly as a misbehaving client would send them.
		req := httptest.NewRequest(http.MethodGet, "http://fuzz.test/", nil)
		q := path
		if i := strings.IndexByte(path, '?'); i >= 0 {
			req.URL.RawQuery = path[i+1:]
			q = path[:i]
		}
		req.URL.Path = q
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		switch rec.Code {
		case 200, 301, 308, 400, 404, 405:
		default:
			t.Fatalf("path %q: status %d body %q", path, rec.Code, rec.Body.String())
		}
	})
}
