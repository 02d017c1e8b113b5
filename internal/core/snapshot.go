package core

import (
	"fmt"
	"slices"

	"terids/internal/grid"
	"terids/internal/snapshot"
	"terids/internal/tuple"
)

// This file is the core half of the checkpoint subsystem: converting between
// live operator state and snapshot.Checkpoint. Only primary state is
// captured — resident records, arrival sequences, the entity set, counters.
// Everything derived (imputation distributions, profiles, grid cells) is
// recomputed on restore, which is what lets a checkpoint taken at one shard
// count be restored at another: residency is a function of the recomputed
// profile, not of the serialized bytes.

// NewCheckpointHeader seeds a checkpoint with the problem-configuration
// fingerprint restore validates against.
func NewCheckpointHeader(sh *Shared, cfg Config) *snapshot.Checkpoint {
	return &snapshot.Checkpoint{
		Streams:     cfg.Streams,
		WindowSize:  cfg.WindowSize,
		Gamma:       cfg.Gamma,
		Alpha:       cfg.Alpha,
		Keywords:    sh.Keywords.Texts(),
		SchemaAttrs: sh.Schema.Attrs(),
	}
}

// CheckpointCompatible reports whether a checkpoint was captured under an
// equivalent problem configuration. Parameters that affect which pairs are
// emitted (schema, keywords, thresholds, window model) must match exactly;
// parameters that only move cost around (shard count, grid resolution) may
// differ freely.
func CheckpointCompatible(sh *Shared, cfg Config, c *snapshot.Checkpoint) error {
	if attrs := sh.Schema.Attrs(); !slices.Equal(attrs, c.SchemaAttrs) {
		return fmt.Errorf("core: checkpoint schema %v, have %v", c.SchemaAttrs, attrs)
	}
	if kws := sh.Keywords.Texts(); !slices.Equal(kws, c.Keywords) {
		return fmt.Errorf("core: checkpoint keywords %v, have %v", c.Keywords, kws)
	}
	if cfg.Streams != c.Streams {
		return fmt.Errorf("core: checkpoint has %d streams, configured %d", c.Streams, cfg.Streams)
	}
	if cfg.WindowSize != c.WindowSize {
		return fmt.Errorf("core: checkpoint window size %d, configured %d", c.WindowSize, cfg.WindowSize)
	}
	if cfg.Gamma != c.Gamma || cfg.Alpha != c.Alpha {
		return fmt.Errorf("core: checkpoint thresholds γ=%v α=%v, configured γ=%v α=%v",
			c.Gamma, c.Alpha, cfg.Gamma, cfg.Alpha)
	}
	return nil
}

// ResidentFromRecord converts one live record into its checkpoint form.
func ResidentFromRecord(r *tuple.Record, arrivalSeq int64) snapshot.Resident {
	vals := make([]string, r.D())
	for j := range vals {
		vals[j] = r.Value(j)
	}
	return snapshot.Resident{
		ArrivalSeq: arrivalSeq,
		RID:        r.RID,
		Stream:     r.Stream,
		Seq:        r.Seq,
		EntityID:   r.EntityID,
		Values:     vals,
	}
}

// CheckpointRecords materializes the checkpoint's residents back into
// records, in arrival order (index i corresponds to c.Residents[i]).
func CheckpointRecords(schema *tuple.Schema, c *snapshot.Checkpoint) ([]*tuple.Record, error) {
	recs := make([]*tuple.Record, len(c.Residents))
	for i, res := range c.Residents {
		r, err := tuple.NewRecord(schema, res.RID, res.Stream, res.Seq, res.Values)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint resident %d: %w", i, err)
		}
		r.EntityID = res.EntityID
		recs[i] = r
	}
	return recs, nil
}

// ArrivalRecord materializes one logged arrival back into a record — the
// replay entry point shared by the engine's WAL recovery and the batch CLI.
// EntityID is preserved so a replayed evaluation run scores identically to
// the original; resolution itself never reads it.
func ArrivalRecord(schema *tuple.Schema, rid string, stream int, seq int64, entityID int, values []string) (*tuple.Record, error) {
	r, err := tuple.NewRecord(schema, rid, stream, seq, values)
	if err != nil {
		return nil, fmt.Errorf("core: replayed arrival %s: %w", rid, err)
	}
	r.EntityID = entityID
	return r, nil
}

// CheckpointPairs appends the live entity set to c as index references over
// c.Residents (every pair member is window-live, hence a resident).
func CheckpointPairs(rs *ResultSet, c *snapshot.Checkpoint) error {
	idx := make(map[string]int, len(c.Residents))
	for i, r := range c.Residents {
		idx[r.RID] = i
	}
	for _, p := range rs.Pairs() {
		a, okA := idx[p.A.RID]
		b, okB := idx[p.B.RID]
		if !okA || !okB {
			return fmt.Errorf("core: entity-set pair (%s, %s) references a non-resident tuple",
				p.A.RID, p.B.RID)
		}
		c.Pairs = append(c.Pairs, snapshot.PairRef{A: a, B: b, Prob: p.Prob})
	}
	return nil
}

// RestoreResults fills an empty result set from the checkpoint's pairs over
// the materialized records.
func RestoreResults(rs *ResultSet, recs []*tuple.Record, c *snapshot.Checkpoint) error {
	if rs.Len() != 0 {
		return fmt.Errorf("core: restore into non-empty result set (%d pairs)", rs.Len())
	}
	for _, pr := range c.Pairs {
		rs.Add(Pair{A: recs[pr.A], B: recs[pr.B], Prob: pr.Prob})
	}
	return nil
}

// Seq returns the number of arrivals the processor has fully processed —
// the watermark its next checkpoint would carry.
func (p *Processor) Seq() int64 { return p.seq }

// Snapshot captures the processor's full online state at the current
// watermark: the window residents with their arrival sequences, the live
// entity set, and the arrival counter. The checkpoint can be restored into
// a fresh Processor or into the sharded engine at any shard count.
func (p *Processor) Snapshot() (*snapshot.Checkpoint, error) {
	c := NewCheckpointHeader(p.step.Shared(), p.step.Config())
	c.Seq = p.seq
	c.Completed = p.seq
	c.Shards = 1
	// Grid export order is insertion-ordinal order, which for the processor
	// is arrival order — exactly the Residents contract.
	for _, e := range p.grid.Export() {
		s, ok := p.seqOf[e.Rec.RID]
		if !ok {
			return nil, fmt.Errorf("core: resident %s has no arrival sequence", e.Rec.RID)
		}
		c.Residents = append(c.Residents, ResidentFromRecord(e.Rec, s))
	}
	if err := CheckpointPairs(p.results, c); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("core: snapshot self-check: %w", err)
	}
	return c, nil
}

// Restore loads a checkpoint into a freshly constructed (never advanced)
// processor: windows, grid, entity set, and counters all resume at the
// checkpoint's watermark. Profiles are recomputed from the resident records,
// so the restored grid is identical to the one an uninterrupted run holds.
func (p *Processor) Restore(c *snapshot.Checkpoint) error {
	if p.seq != 0 || p.grid.Len() != 0 || p.results.Len() != 0 {
		return fmt.Errorf("core: restore into a processor that has already advanced")
	}
	if err := c.Validate(); err != nil {
		return err
	}
	if err := CheckpointCompatible(p.step.Shared(), p.step.Config(), c); err != nil {
		return err
	}
	recs, err := CheckpointRecords(p.step.Shared().Schema, c)
	if err != nil {
		return err
	}
	if err := p.windows.Import(recs); err != nil {
		return err
	}
	entries := make([]*grid.Entry, len(recs))
	for i, r := range recs {
		im, _ := p.step.Impute(r)
		entries[i] = &grid.Entry{Rec: r, Prof: p.step.Profile(im)}
		p.seqOf[r.RID] = c.Residents[i].ArrivalSeq
	}
	if err := p.grid.Import(entries); err != nil {
		return err
	}
	if err := RestoreResults(p.results, recs, c); err != nil {
		return err
	}
	p.seq = c.Seq
	return nil
}

// NewProcessorFromSnapshot builds a processor over Shared state and resumes
// it from checkpoint c.
func NewProcessorFromSnapshot(sh *Shared, cfg Config, c *snapshot.Checkpoint) (*Processor, error) {
	p, err := NewProcessor(sh, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.Restore(c); err != nil {
		return nil, err
	}
	return p, nil
}
