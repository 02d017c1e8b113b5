package engine

import (
	"errors"
	"strings"
	"testing"

	"terids/internal/snapshot"
	"terids/internal/wal"
)

// refusalCase is one way a live-engine state operation must say no. The
// engine arrives fed with the fixture's first refusalFed arrivals; ckpt is a
// barrier checkpoint of an identical engine at that watermark. call performs
// the operation and returns its error.
type refusalCase struct {
	name string
	call func(t *testing.T, eng *Engine, ckpt *snapshot.Checkpoint) error
	// wantIs, when set, must match via errors.Is; otherwise wantText must
	// appear in the message.
	wantIs   error
	wantText string
	// dead marks cases that leave the engine closed or failed; every other
	// refusal must leave it processing arrivals.
	dead bool
}

const refusalFed = 30

// TestApplyCheckpointAndAttachWALRefusals pins the refusal contracts of the
// two operations that change a RUNNING engine's state or submission path —
// until now reachable only through the follower tests.
func TestApplyCheckpointAndAttachWALRefusals(t *testing.T) {
	f := loadFixture(t)
	errInjected := errors.New("injected pipeline failure")
	openLog := func(t *testing.T) *wal.Log {
		t.Helper()
		l, err := wal.Open(t.TempDir(), wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = l.Close() })
		return l
	}

	cases := []refusalCase{
		{
			name: "ApplyCheckpoint rewinds",
			call: func(t *testing.T, eng *Engine, ckpt *snapshot.Checkpoint) error {
				if err := eng.Submit(f.stream[refusalFed]); err != nil {
					t.Fatal(err)
				}
				return eng.ApplyCheckpoint(ckpt) // now one behind the watermark
			},
			wantText: "behind the engine",
		},
		{
			name: "ApplyCheckpoint incompatible core config",
			call: func(t *testing.T, eng *Engine, ckpt *snapshot.Checkpoint) error {
				bad := *ckpt
				bad.WindowSize++
				return eng.ApplyCheckpoint(&bad)
			},
			wantText: "window",
		},
		{
			name: "ApplyCheckpoint on a closed engine",
			call: func(t *testing.T, eng *Engine, ckpt *snapshot.Checkpoint) error {
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				return eng.ApplyCheckpoint(ckpt)
			},
			wantIs: ErrClosed,
			dead:   true,
		},
		{
			name: "ApplyCheckpoint on a failed engine",
			call: func(t *testing.T, eng *Engine, ckpt *snapshot.Checkpoint) error {
				eng.fail(errInjected)
				return eng.ApplyCheckpoint(ckpt)
			},
			wantIs: errInjected,
			dead:   true,
		},
		{
			name: "AttachWAL nil log",
			call: func(t *testing.T, eng *Engine, _ *snapshot.Checkpoint) error {
				return eng.AttachWAL(nil)
			},
			wantText: "nil log",
		},
		{
			name: "AttachWAL log does not meet the watermark",
			call: func(t *testing.T, eng *Engine, _ *snapshot.Checkpoint) error {
				return eng.AttachWAL(openLog(t)) // empty log, engine at refusalFed
			},
			wantText: "does not meet engine watermark",
		},
		{
			name: "AttachWAL twice",
			call: func(t *testing.T, eng *Engine, _ *snapshot.Checkpoint) error {
				l := openLog(t)
				for i, r := range f.stream[:refusalFed] {
					if err := l.Append(walEntry(int64(i), r)); err != nil {
						t.Fatal(err)
					}
				}
				if err := eng.AttachWAL(l); err != nil {
					t.Fatalf("first attach at the watermark: %v", err)
				}
				return eng.AttachWAL(l)
			},
			wantText: "already attached",
		},
		{
			name: "AttachWAL on a closed engine",
			call: func(t *testing.T, eng *Engine, _ *snapshot.Checkpoint) error {
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				return eng.AttachWAL(openLog(t))
			},
			wantIs: ErrClosed,
			dead:   true,
		},
	}

	ref, err := New(f.sh, Config{Core: f.cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SubmitBatch(f.stream[:refusalFed]); err != nil {
		t.Fatal(err)
	}
	ckpt, err := ref.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(f.sh, Config{Core: f.cfg, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if err := eng.SubmitBatch(f.stream[:refusalFed]); err != nil {
				t.Fatal(err)
			}
			err = tc.call(t, eng, ckpt)
			switch {
			case err == nil:
				t.Fatal("accepted, want a refusal")
			case tc.wantIs != nil && !errors.Is(err, tc.wantIs):
				t.Fatalf("refused with %v, want %v", err, tc.wantIs)
			case tc.wantIs == nil && !strings.Contains(err.Error(), tc.wantText):
				t.Fatalf("refused with %q, want mention of %q", err, tc.wantText)
			}
			if tc.dead {
				return
			}
			// A refusal is not a failure: the engine keeps processing.
			before := eng.Stats().Submitted
			if err := eng.Submit(f.stream[before]); err != nil {
				t.Fatalf("submit after refusal: %v", err)
			}
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := eng.Completed(); got != before+1 {
				t.Fatalf("completed %d after refusal, want %d", got, before+1)
			}
		})
	}
}

// TestNewFromSnapshotNilIsNew pins the genesis case: NewFromSnapshot with no
// checkpoint is New, and both are byte-identical to core.Processor.
func TestNewFromSnapshotNilIsNew(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)
	builders := map[string]func(Config) (*Engine, error){
		"New":                  func(cfg Config) (*Engine, error) { return New(f.sh, cfg) },
		"NewFromSnapshot(nil)": func(cfg Config) (*Engine, error) { return NewFromSnapshot(f.sh, cfg, nil) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			col := newCollector()
			eng, err := build(Config{Core: f.cfg, Shards: 3, OnResult: col.onResult})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.SubmitBatch(f.stream); err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			for i := range wantPerArrival {
				if !samePairs(wantPerArrival[i], col.pairs[int64(i)]) {
					t.Fatalf("arrival %d: got %v, reference %v", i, col.pairs[int64(i)], wantPerArrival[i])
				}
			}
			if !samePairs(wantFinal, eng.ResultSet()) {
				t.Fatal("final entity set differs from the reference")
			}
			if st := eng.Stats(); st.Submitted != int64(len(f.stream)) || st.Completed != st.Submitted {
				t.Fatalf("submitted=%d completed=%d, want %d", st.Submitted, st.Completed, len(f.stream))
			}
		})
	}
}
