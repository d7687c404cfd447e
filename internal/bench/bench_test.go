package bench

import (
	"strings"
	"testing"
)

func tinyNet(t *testing.T) *Network {
	t.Helper()
	net, err := Load("oahu", 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestLoadFamilies(t *testing.T) {
	if len(Families()) != 5 {
		t.Fatalf("families: %v", Families())
	}
	if _, err := Load("unknown", 1, 1); err == nil {
		t.Fatal("unknown family accepted")
	}
	net := tinyNet(t)
	if net.TT == nil || net.G == nil || net.SG == nil {
		t.Fatal("incomplete bundle")
	}
}

func TestTable1Structure(t *testing.T) {
	net := tinyNet(t)
	rows, err := Table1(net, []int{1, 2}, 3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (p=1, p=2, LC)", len(rows))
	}
	if rows[0].Algo != "CS" || rows[0].P != 1 || rows[1].P != 2 || rows[2].Algo != "LC" {
		t.Fatalf("row layout wrong: %+v", rows)
	}
	if rows[0].SpeedUp != 1 || rows[0].IdealSpeedUp != 1 {
		t.Fatal("baseline speed-ups must be 1")
	}
	if rows[0].MeanSettled <= 0 || rows[2].MeanSettled <= rows[0].MeanSettled {
		t.Fatalf("LC must settle more than CS: %+v", rows)
	}
	if rows[1].IdealSpeedUp <= 1 {
		t.Fatalf("p=2 ideal speed-up %.2f, want > 1", rows[1].IdealSpeedUp)
	}
	// Deterministic workload: same seed, same settled counts.
	again, err := Table1(net, []int{1, 2}, 3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i].MeanSettled != again[i].MeanSettled {
			t.Fatalf("row %d not deterministic: %.0f vs %.0f", i, rows[i].MeanSettled, again[i].MeanSettled)
		}
	}
}

func TestTable2Structure(t *testing.T) {
	net := tinyNet(t)
	sels := []Selection{
		{Label: "0.0%"},
		{Label: "10.0%", Fraction: 0.10},
		{Label: "deg > 2", MinDegree: 2},
	}
	rows, err := Table2(net, sels, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Transfer != 0 || rows[0].PreproTime != 0 || rows[0].SpeedUp != 1 {
		t.Fatalf("baseline row wrong: %+v", rows[0])
	}
	if rows[1].Transfer <= 0 || rows[1].PreproTime <= 0 {
		t.Fatalf("table row lacks preprocessing cost: %+v", rows[1])
	}
	if rows[0].TableUpdatesPerSec != 0 {
		t.Fatalf("no-table row reports table-update throughput: %+v", rows[0])
	}
	if rows[1].TableUpdatesPerSec <= 0 {
		t.Fatalf("table row lacks upd/s(table): %+v", rows[1])
	}
	if rows[1].UpdatesPerSec < rows[1].TableUpdatesPerSec {
		t.Fatalf("table repair cannot be faster than the patch alone: %+v", rows[1])
	}
	for _, r := range rows {
		if r.MeanSettled < 0 || r.MeanTimeMS < 0 {
			t.Fatalf("negative metrics: %+v", r)
		}
	}
}

func TestPaperSelections(t *testing.T) {
	sels := PaperSelections(false)
	if len(sels) != 7 || sels[0].Label != "0.0%" || sels[len(sels)-1].MinDegree != 2 {
		t.Fatalf("selections: %+v", sels)
	}
	full := PaperSelections(true)
	if len(full) != 8 || full[6].Label != "30.0%" {
		t.Fatalf("full selections: %+v", full)
	}
}

func TestAblations(t *testing.T) {
	net := tinyNet(t)
	t.Run("partition", func(t *testing.T) {
		rows, err := AblationPartition(net, 4, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			if r.Imbalance < 1 {
				t.Fatalf("imbalance below 1: %+v", r)
			}
		}
	})
	t.Run("self-pruning", func(t *testing.T) {
		rows, err := AblationSelfPruning(net, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 || rows[0].MeanSettled >= rows[1].MeanSettled {
			t.Fatalf("self-pruning rows wrong: %+v", rows)
		}
	})
	t.Run("stopping", func(t *testing.T) {
		rows, err := AblationStopping(net, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 || rows[0].MeanSettled > rows[1].MeanSettled {
			t.Fatalf("stopping rows wrong: %+v", rows)
		}
	})
}

func TestPrinters(t *testing.T) {
	net := tinyNet(t)
	t1, err := Table1(net, []int{1}, 2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintTable1(&sb, t1)
	if !strings.Contains(sb.String(), "settled conns") || !strings.Contains(sb.String(), "LC") {
		t.Fatalf("Table1 output: %q", sb.String())
	}
	t2, err := Table2(net, []Selection{{Label: "0.0%"}, {Label: "10.0%", Fraction: 0.1}}, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	PrintTable2(&sb, t2)
	if !strings.Contains(sb.String(), "prepro") {
		t.Fatalf("Table2 output: %q", sb.String())
	}
	ab, err := AblationSelfPruning(net, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	PrintAblation(&sb, "self-pruning", ab)
	if !strings.Contains(sb.String(), "self-pruning") {
		t.Fatalf("ablation output: %q", sb.String())
	}
}

func TestAblationPareto(t *testing.T) {
	net := tinyNet(t)
	rows, err := AblationPareto(net, []int{2, 4}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// A tight budget can prune more than layering adds, so the only stable
	// shape is monotonicity in the budget.
	if rows[1].MeanSettled <= 0 {
		t.Fatalf("pareto settled nothing: %+v", rows)
	}
	if rows[2].MeanSettled < rows[1].MeanSettled {
		t.Fatalf("larger budget should not settle fewer labels: %+v", rows)
	}
}
