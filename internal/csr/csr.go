// Package csr builds compressed sparse rows: items grouped by a dense key,
// every row a window of one backing array, in one counting pass and one
// fill. The timetable's and the time-dependent graph's per-station,
// per-train and per-node indexes are all built this way.
package csr

// Group returns one row per key in [0, rows) holding the items with that
// key, in their order in items; an item whose key is negative is left out.
// The rows are windows of one array with their capacities clipped to their
// lengths, so an append to one row never writes into the next.
func Group[T any](rows int, items []T, key func(T) int32) [][]T {
	start := make([]int32, rows+1)
	for _, it := range items {
		if k := key(it); k >= 0 {
			start[k+1]++
		}
	}
	for r := range rows {
		start[r+1] += start[r]
	}
	all := make([]T, start[rows])
	out := make([][]T, rows)
	for r := range out {
		out[r] = all[start[r]:start[r]:start[r+1]]
	}
	for _, it := range items {
		if k := key(it); k >= 0 {
			out[k] = append(out[k], it)
		}
	}
	return out
}
