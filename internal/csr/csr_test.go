package csr

import (
	"fmt"
	"testing"
)

func TestGroup(t *testing.T) {
	items := []int{7, 2, 5, 4, 9, 0, 6}
	rows := Group(4, items, func(v int) int32 {
		if v == 9 {
			return -1
		}
		return int32(v % 4)
	})
	if got, want := fmt.Sprint(rows), "[[4 0] [5] [2 6] [7]]"; got != want {
		t.Fatalf("rows %s, want %s", got, want)
	}
	for r, row := range rows {
		if cap(row) != len(row) {
			t.Errorf("row %d: capacity %d beyond its %d items", r, cap(row), len(row))
		}
	}
	if rows := Group(3, []int(nil), func(int) int32 { return 0 }); len(rows) != 3 || len(rows[0]) != 0 {
		t.Errorf("no items: %v", rows)
	}
}
