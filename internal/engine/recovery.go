package engine

import (
	"pref/internal/fault"
	"pref/internal/table"
	"pref/internal/trace"
)

// PREF-redundancy recovery.
//
// The PREF scheme's correctness mechanism — duplicating referencing tuples
// so joins stay local — doubles as a recovery source: a tuple copy lost
// with its node often exists verbatim on surviving nodes, either as a PREF
// duplicate (the tuple had partitioning partners on several partitions) or
// as a replica (REPLICATED tables). When the node holding base partition p
// is down, recoverScan asks the placement whether every row of p has a
// surviving copy (table.Version.Unrecoverable: replicas and dup bits
// answer it, with a cached content check only for PREF tables that hold
// duplicates), meters the survivors → buddy shipment, and the scan then
// reads p exactly as a healthy one.
//
// Simulation boundary: the lost partition's content is read from the
// in-memory partition, standing in for the copies the survivors ship. The
// placement decides whether those copies exist: any row without a
// surviving identical copy makes the partition unrecoverable and the
// query fails with a well-typed *fault.PartitionLostError.

// recoverScan checks that lost partition p of ver can be served from
// surviving copies and meters the shipment of its rows from survivors to
// the buddy node; Stats.RecoveredRows counts them. Unrecoverable content
// returns *fault.PartitionLostError.
//
// lint:ship-boundary recovery path: rebuilt rows are shipped from surviving
// partitions to the buddy node and metered against Stats and the trace.
func (ex *executor) recoverScan(top *trace.Op, ver *table.Version, tbl string, p, width int) error {
	if missing := ver.Unrecoverable(p, ex.down); missing > 0 {
		return &fault.PartitionLostError{Table: tbl, Partition: p, MissingRows: missing}
	}
	n := ver.Parts[p].Len()
	ex.mu.Lock()
	ex.stats.RecoveredRows += int64(n)
	ex.ship(n, width) // survivors → buddy node
	ex.mu.Unlock()
	en := ex.execDst[p]
	top.AddRecovered(en, n)
	top.AddShip(en, n, width)
	return nil
}
