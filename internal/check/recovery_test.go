package check_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pref/internal/bulkload"
	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/partition"
	"pref/internal/table"
	"pref/internal/value"
)

// contentMissing is the content-sweep oracle for recoverability: the rows
// of partition p with no identical full-row copy on a partition that is
// not down.
func contentMissing(parts []*table.Partition, p int, down []bool) int {
	surv := make(map[value.Key]bool)
	for q, part := range parts {
		if down[q] {
			continue
		}
		for _, r := range part.Rows {
			surv[value.MakeKey(r, allCols(r))] = true
		}
	}
	missing := 0
	for _, r := range parts[p].Rows {
		if !surv[value.MakeKey(r, allCols(r))] {
			missing++
		}
	}
	return missing
}

func allCols(r value.Tuple) []int {
	cols := make([]int, len(r))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// genRows fills every table with 1–40 rows keyed 0..n-1 in the first
// column. Unless unique, some rows repeat an earlier row verbatim.
func genRows(rng *rand.Rand, s *catalog.Schema, unique bool) *table.Database {
	db := table.NewDatabase(s)
	for _, t := range s.Tables() {
		d := db.Tables[t.Name]
		for i := 0; i < 1+rng.Intn(40); i++ {
			if !unique && i > 0 && rng.Intn(4) == 0 {
				d.MustAppend(d.Rows[rng.Intn(i)].Clone())
				continue
			}
			d.MustAppend(genRow(rng, t, int64(i)))
		}
	}
	return db
}

func genRow(rng *rand.Rand, t *catalog.Table, key int64) value.Tuple {
	row := make(value.Tuple, t.NumCols())
	row[0] = key
	for c := 1; c < len(row); c++ {
		row[c] = int64(rng.Intn(20))
	}
	return row
}

// writeEpoch commits one random batch of inserts, updates and deletes,
// op by op; ops the write path rejects (partitioning-column updates,
// deletes that would strand PREF copies) publish nothing.
func writeEpoch(rng *rand.Rand, l *bulkload.Loader, s *catalog.Schema, epoch int) {
	names := s.TableNames()
	for i := 0; i < 1+rng.Intn(6); i++ {
		t := s.Table(names[rng.Intn(len(names))])
		var op bulkload.Op
		switch rng.Intn(4) {
		case 0:
			col := t.Columns[1+rng.Intn(t.NumCols()-1)].Name
			op = bulkload.Update(t.Name, []string{t.Columns[0].Name}, value.Tuple{int64(rng.Intn(40))}, col, int64(rng.Intn(20)))
		case 1:
			op = bulkload.Delete(t.Name, []string{t.Columns[0].Name}, value.Tuple{int64(rng.Intn(40))})
		default:
			op = bulkload.Insert(t.Name, genRow(rng, t, int64(1000*(epoch+1)+i)))
		}
		_, _ = l.Apply(op)
	}
}

// downSets lists every single and double down set over n nodes.
func downSets(n int) [][]bool {
	var out [][]bool
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			d := make([]bool, n)
			d[a], d[b] = true, true
			out = append(out, d)
		}
	}
	return out
}

// TestRecoverabilityImpliesContentOracle: over generated schemas and
// designs, every single and double down set and 0–3 write epochs, the
// placement-derived answer (table.Version.Unrecoverable) never calls a
// partition recoverable that the content sweep finds rows missing from,
// and on unique-row data the two agree row for row.
func TestRecoverabilityImpliesContentOracle(t *testing.T) {
	scenarios, checks := 0, 0
	for seed := int64(1); scenarios < 80; seed++ {
		if seed > 2000 {
			t.Fatalf("only %d valid scenarios in %d seeds", scenarios, seed)
		}
		rng := rand.New(rand.NewSource(seed))
		s := check.GenSchema(rng)
		cfg := check.GenConfig(rng, s)
		if cfg.Validate(s) != nil {
			continue
		}
		unique := seed%4 != 0
		pdb, err := partition.Apply(genRows(rng, s, unique), cfg)
		if err != nil {
			continue
		}
		scenarios++
		l := bulkload.NewLoader(pdb, cfg)
		epochs := rng.Intn(4)
		for e := 0; e <= epochs; e++ {
			if e > 0 {
				writeEpoch(rng, l, s, e)
			}
			snap := pdb.Snapshot()
			for name, v := range snap.Tables {
				for _, down := range downSets(cfg.NumPartitions) {
					for p := range v.Parts {
						if !down[p] {
							continue
						}
						got := v.Unrecoverable(p, down)
						want := contentMissing(v.Parts, p, down)
						where := fmt.Sprintf("seed %d epoch %d %s[%d] down %s (%s)",
							seed, snap.Epoch, name, p, table.DownKey(down), cfg.Scheme(name))
						if got == 0 && want > 0 {
							t.Fatalf("%s: placement says recoverable, %d rows have no surviving copy", where, want)
						}
						if unique && got != want {
							t.Fatalf("%s: placement says %d rows missing, content sweep %d", where, got, want)
						}
						checks++
					}
				}
			}
		}
	}
	t.Logf("%d scenarios, %d partition checks", scenarios, checks)
}
