package experiments

// Glue between the per-design response tables (internal/metasurface)
// and their persisted records (internal/store). The store deliberately
// treats table entries as opaque string rows, and metasurface knows
// nothing about disk layout — this file is the only place the two
// meet, so llama-bench, llama-serve and llama-worker all warm-start
// and persist tables through one code path.

import (
	"fmt"

	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/store"
)

// LoadResponseTables imports every persisted response table from the
// store into the process-wide table registry, so surfaces built
// afterwards (or already built for the same designs) answer from warm
// tables. It returns the number of tables and entries imported and a
// warning per record that could not be used — corrupt or
// metasurface-rejected records cost recomputation, never correctness,
// so they warn instead of failing.
func LoadResponseTables(st *store.Store) (tables, entries int, warns []string) {
	if st == nil {
		return 0, 0, nil
	}
	recs, err := st.ListTables()
	if err != nil {
		return 0, 0, []string{fmt.Sprintf("store: listing response tables: %v: starting cold", err)}
	}
	for _, rec := range recs {
		n, err := metasurface.ImportResponseTable(metasurface.TableExport{
			Fingerprint: rec.Fingerprint,
			Axis:        rec.Axis,
			QWP:         rec.QWP,
		})
		if err != nil {
			warns = append(warns, fmt.Sprintf("store: response table %s at %s: %v: skipping", rec.Fingerprint, rec.Path, err))
			continue
		}
		tables++
		entries += n
	}
	return tables, entries, warns
}

// SaveResponseTables persists every non-empty in-memory response table
// to the store, union-merged with whatever is already on disk: an
// existing record's entries are imported first (existing in-memory
// entries win, so nothing this process computed is overwritten), then
// the merged table is re-exported and written atomically. Concurrent
// writers can still lose each other's *new* entries to a last-write
// race — acceptable for what is pure acceleration state. A corrupt
// existing record is warned about and overwritten with the fresh
// table. It returns the number of tables and entries written and any
// warnings.
func SaveResponseTables(st *store.Store) (tables, entries int, warns []string) {
	if st == nil {
		return 0, 0, nil
	}
	for _, ex := range metasurface.ExportResponseTables() {
		if len(ex.Axis) == 0 && len(ex.QWP) == 0 {
			continue // an empty table record would only add scan noise
		}
		if old, err := st.GetTable(ex.Fingerprint); err == nil {
			if _, err := metasurface.ImportResponseTable(metasurface.TableExport{
				Fingerprint: old.Fingerprint,
				Axis:        old.Axis,
				QWP:         old.QWP,
			}); err != nil {
				warns = append(warns, fmt.Sprintf("store: merging response table %s at %s: %v: overwriting", ex.Fingerprint, old.Path, err))
			} else {
				// Re-export so the written record carries the union.
				for _, merged := range metasurface.ExportResponseTables() {
					if merged.Fingerprint == ex.Fingerprint {
						ex = merged
						break
					}
				}
			}
		} else if !store.IsTableNotFound(err) {
			warns = append(warns, fmt.Sprintf("store: reading response table %s: %v: overwriting", ex.Fingerprint, err))
		}
		rec := &store.TableRecord{Fingerprint: ex.Fingerprint, Axis: ex.Axis, QWP: ex.QWP}
		if err := st.PutTable(rec); err != nil {
			warns = append(warns, fmt.Sprintf("%v", err))
			continue
		}
		tables++
		entries += rec.Entries()
	}
	return tables, entries, warns
}
