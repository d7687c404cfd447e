package transit

import (
	"io"
	"time"

	"transit/internal/graph"
	"transit/internal/snapshot"
)

// SnapshotState is the live-serving provenance carried by a network
// snapshot: which update epoch the network represents and when that epoch
// was created. A freshly built network is epoch 0; internal/live bumps the
// epoch per applied delay batch and persists it here so a restarted server
// resumes where it left off.
type SnapshotState struct {
	Epoch   uint64
	Created time.Time
}

// WriteSnapshot serializes the complete query-ready network — timetable,
// station graph, and the distance table if the network is preprocessed —
// into the versioned snapshot container (docs/SNAPSHOT_FORMAT.md). A server
// booting from the result (LoadSnapshot, tpserver -snapshot) skips
// generation and preprocessing; every section is still validated on load.
func (n *Network) WriteSnapshot(w io.Writer) error {
	return n.WriteSnapshotState(w, SnapshotState{})
}

// WriteSnapshotState is WriteSnapshot with explicit provenance: the given
// epoch and creation time are stored in the snapshot's live-state section.
// internal/live.Registry.Persist uses this to checkpoint the current patched
// epoch.
func (n *Network) WriteSnapshotState(w io.Writer, st SnapshotState) error {
	return snapshot.Write(w, &snapshot.Data{
		TT:      n.tt,
		SG:      n.sg,
		Table:   n.table,
		Epoch:   st.Epoch,
		Created: st.Created,
		// Patchedness survives persistence even without live provenance
		// (epoch 0).
		Patched: n.patched,
	})
}

// LoadSnapshot reconstructs a query-ready Network from a snapshot written by
// WriteSnapshot. The timetable, station graph and distance table are decoded
// and validated from their checksummed sections, every count bounded by the
// bytes left before anything is allocated for it; only the (cheap)
// time-dependent graph is rebuilt. The returned state reports the snapshot's epoch and creation
// time. A network restored from a patched snapshot (epoch > 0, or written
// from a patched network) stays patched; its embedded table, built after
// the patches, is attached as-is.
func LoadSnapshot(r io.Reader) (*Network, *SnapshotState, error) {
	d, err := snapshot.Read(r)
	if err != nil {
		return nil, nil, err
	}
	n := &Network{
		tt:      d.TT,
		g:       graph.Build(d.TT),
		sg:      d.SG,
		byName:  make(map[string]StationID, len(d.TT.Stations)),
		table:   d.Table,
		patched: d.Patched,
	}
	for _, s := range d.TT.Stations {
		if _, dup := n.byName[s.Name]; !dup {
			n.byName[s.Name] = s.ID
		}
	}
	return n, &SnapshotState{Epoch: d.Epoch, Created: d.Created}, nil
}
