// Package catalog turns a directory of network snapshots into a
// multi-tenant registry: many cities, one binary.
//
// A catalog directory holds a manifest (catalog.json) naming each network
// and its snapshot file. Every tenant owns its own live.Registry —
// independent delay epochs, persist files and distance-table rebuilds —
// so nothing one city's delay feed does is observable from another city's
// queries.
//
// # Lifecycle
//
// Tenants are cold at Open and materialize lazily: the first Acquire loads
// the snapshot (~tens of milliseconds for a CRC-checked mmap-free read),
// wraps it in a registry, and starts its persistence loop. Acquire returns
// a Handle that pins the tenant with an in-flight refcount; the registry
// cannot be evicted while any handle is out, so a query holds its handle
// (and therefore its snapshot) for its full duration.
//
// When Config.MemBytes is set, the catalog evicts least-recently-used
// unpinned tenants once the summed snapshot sizes of the resident set
// exceed the budget. Eviction closes the tenant's registry, which flushes
// one final persist checkpoint; a concurrent Acquire of the same tenant
// waits for that flush before reloading, so the reload always observes the
// newest epoch. The persist file, when present, wins over the manifest
// snapshot at load time — delay epochs survive eviction and restarts.
//
// # Consistency
//
// The catalog lock covers only bookkeeping (tenant table, LRU list,
// counters); snapshot loading and registry closing happen outside it, with
// per-tenant loading/closing gates serializing waiters. Queries against
// tenant A never block on tenant B's load or eviction.
package catalog
