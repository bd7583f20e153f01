package experiments

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestNamedPFNamesUnique checks the naming contract the single-flight
// and checkpoint keys rely on: a namedPF name identifies
// one prefetcher configuration. It parses the package source and
// requires every namedPF literal to carry a distinct name — a string
// literal, or an fmt.Sprintf whose format encodes the varied
// parameters — so a configuration used in two figures must be hoisted
// into one declaration instead of being spelled twice.
func TestNamedPFNamesUnique(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := make(map[string]token.Position)
	check := func(lit *ast.CompositeLit) {
		if len(lit.Elts) == 0 {
			return
		}
		name := lit.Elts[0]
		if kv, ok := name.(*ast.KeyValueExpr); ok {
			name = kv.Value
		}
		var id string
		switch e := name.(type) {
		case *ast.BasicLit:
			id, _ = strconv.Unquote(e.Value)
		case *ast.CallExpr:
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" && len(e.Args) > 0 {
				if format, ok := e.Args[0].(*ast.BasicLit); ok {
					id, _ = strconv.Unquote(format.Value)
				}
			}
		}
		pos := fset.Position(lit.Pos())
		if id == "" {
			t.Errorf("%s: namedPF name is neither a string literal nor an fmt.Sprintf format", pos)
			return
		}
		if prev, dup := seen[id]; dup {
			t.Errorf("%s: namedPF name %q already declared at %s", pos, id, prev)
		}
		seen[id] = pos
	}
	isNamedPF := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "namedPF"
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if isNamedPF(lit.Type) {
				check(lit)
			}
			// Elements of a []namedPF literal elide their type.
			if arr, ok := lit.Type.(*ast.ArrayType); ok && isNamedPF(arr.Elt) {
				for _, el := range lit.Elts {
					if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil {
						check(inner)
					}
				}
			}
			return true
		})
	}
	if len(seen) < 10 {
		t.Fatalf("found only %d namedPF names; the source scan is broken", len(seen))
	}
}

// mixCellKeys lists the distinct mix cells a 4-core mix figure
// simulates: every mix under the no-prefetch baseline and each config.
func mixCellKeys(mixes []workload.MixSpec, configs ...namedPF) map[string]bool {
	keys := make(map[string]bool)
	for _, mix := range mixes {
		for _, cfg := range append([]namedPF{cfgNone}, configs...) {
			keys[cellKey("mix", mixBench(mix), cfg.name, len(mix.Specs))] = true
		}
	}
	return keys
}

// TestSharedRunnerDedupsMixCells checks the mix single-flight: one
// Runner running two mix figures prints the same tables as a fresh
// Runner per figure, and simulates each distinct (composition,
// configuration) cell once, so its run count falls by exactly the
// cells the figures share. fig15 and fig16 plot the same mixes and
// share their baselines and Triage_Dynamic cells; fig16 and fig18
// draw different mixes and share only coinciding compositions.
func TestSharedRunnerDedupsMixCells(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}

	p := tinyParams()
	irregular := workload.Mixes(p.Mixes, 4, p.Seed, true)
	mixed := workload.Mixes(p.Mixes, 4, p.Seed^0xBEEF, false)
	cells := map[string]map[string]bool{
		"fig15": mixCellKeys(irregular, cfgTStatic, cfgTDyn),
		"fig16": mixCellKeys(irregular, cfgBO, cfgTDyn, cfgBOTDyn),
		"fig18": mixCellKeys(mixed, cfgBOTDyn, cfgBO, cfgTDyn),
	}
	render := func(r *Runner, id string) []byte {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		var buf bytes.Buffer
		RunOne(r, e).Fprint(&buf)
		return buf.Bytes()
	}
	for _, pair := range [][2]string{{"fig15", "fig16"}, {"fig16", "fig18"}} {
		shared := NewRunnerPool(p, NewPool(2))
		union := make(map[string]bool)
		for _, id := range pair {
			alone := NewRunnerPool(p, NewPool(2))
			want := render(alone, id)
			if got := render(shared, id); !bytes.Equal(got, want) {
				t.Errorf("%s after %s on a shared Runner differs from its own Runner:\n--- own ---\n%s\n--- shared ---\n%s",
					id, pair[0], want, got)
			}
			if got := alone.Runs(); got != uint64(len(cells[id])) {
				t.Errorf("%s alone simulated %d cells, want its %d distinct cells", id, got, len(cells[id]))
			}
			for k := range cells[id] {
				union[k] = true
			}
		}
		dup := len(cells[pair[0]]) + len(cells[pair[1]]) - len(union)
		if pair[0] == "fig15" && dup < 2*p.Mixes {
			t.Errorf("fig15 and fig16 share %d cells, want at least their %d baselines and Triage_Dynamic cells", dup, 2*p.Mixes)
		}
		if got := shared.Runs(); got != uint64(len(union)) {
			t.Errorf("%s+%s on one Runner simulated %d cells, want %d (%d shared cells simulated once)",
				pair[0], pair[1], got, len(union), dup)
		}
	}
}

// TestWarmKeyNoCrossMixCollision pins the cell-key naming contract for
// multi-programmed mixes. Every mix figure numbers its mixes "mix1"..,
// but the benchmark compositions differ per figure, so a cell key
// derived from the display name alone would let fig18's cells reuse
// fig16's results (same machine shape, same windows). The key must
// therefore encode the composition: fig18 simulated after fig16 on a
// shared Runner, sampled series attached, must match fig18 alone.
func TestWarmKeyNoCrossMixCollision(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	alone, _ := csvFor(t, tinyParams(), 4, []string{"fig18"})
	both, _ := csvFor(t, tinyParams(), 4, []string{"fig16", "fig18"})
	if !bytes.HasSuffix(both, alone) {
		t.Errorf("fig18 output changes when fig16 ran first (cell-key collision):\n--- alone ---\n%s\n--- after fig16 ---\n%s", alone, both)
	}
}

// TestCheckpointResumeMixCells extends the resume guarantee to mix
// cells: they are checkpointed like single-core cells, and a resumed
// mix figure restores every one of them byte-identically.
func TestCheckpointResumeMixCells(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	dir := t.TempDir()
	first, r1 := runWithCheckpoint(t, dir, []string{"fig15"})
	second, r2 := runWithCheckpoint(t, dir, []string{"fig15"})
	if !bytes.Equal(first, second) {
		t.Errorf("resumed fig15 differs from the original:\n--- fresh ---\n%s\n--- resumed ---\n%s", first, second)
	}
	if r1.Runs() == 0 || r2.Runs() != 0 || r2.Restored() != r1.Runs() {
		t.Errorf("fresh run simulated %d cells; resume simulated %d and restored %d, want 0 and %d",
			r1.Runs(), r2.Runs(), r2.Restored(), r1.Runs())
	}
}
