package core_test

// The core determinism contract, pinned through the facade's streaming
// engine — the one streaming caller of Validator.ValidateUser. For the
// same users, streaming validation of a binary file, a shard set, a
// resumed checkpointed shard set and a multi-file corpus must equal the
// in-memory ValidateDataset reference at worker counts 1 and 8; source
// and decode errors must propagate, invalid parameters fail, and
// duplicate user IDs are rejected across files and across checkpointed
// and live shards. An external test package, so it can import the
// facade that imports core.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"geosocial"
	"geosocial/internal/core"
	"geosocial/internal/outcome"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

// onGrid generates a dataset and round-trips it through the binary
// codec so its coordinates sit on the E7 grid — binary files then
// decode to exactly these users.
func onGrid(t *testing.T, scale float64, seed uint64) *trace.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(scale), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// saveBin writes ds as an uncompressed binary file in a fresh directory.
func saveBin(t *testing.T, ds *trace.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// inMemory validates ds serially in memory: the reference.
func inMemory(t *testing.T, ds *trace.Dataset) *geosocial.ValidationResult {
	t.Helper()
	ref, err := geosocial.ValidateDatasetWorkers(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// shardUsers reads shard i of a shard set back as a dataset.
func shardUsers(t *testing.T, ss *trace.ShardSet, i int) *trace.Dataset {
	t.Helper()
	r, err := ss.OpenShard(i)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	part := &trace.Dataset{Name: ss.Manifest.Name, POIs: r.POIs()}
	for {
		u, err := r.Next()
		if err == io.EOF {
			return part
		}
		if err != nil {
			t.Fatal(err)
		}
		part.Users = append(part.Users, u)
	}
}

// TestValidateStreamMatchesDataset pins streaming validation of a file
// to the in-memory path: partition, taxonomy, ground-truth score and
// the outcome log (built here from the in-memory outcomes) are
// identical at worker counts 1 and 8.
func TestValidateStreamMatchesDataset(t *testing.T) {
	for _, c := range []struct {
		seed  uint64
		scale float64
	}{
		{3, 0.03},
		{42, 0.05},
	} {
		t.Run(fmt.Sprintf("seed=%d/scale=%g", c.seed, c.scale), func(t *testing.T) {
			ds := onGrid(t, c.scale, c.seed)
			path := saveBin(t, ds)
			ref := inMemory(t, ds)
			wantTax := map[string]int{}
			for k, n := range ref.Breakdown() {
				if n > 0 {
					wantTax[k] = n
				}
			}
			wantTruth, err := ref.TruthScore()
			if err != nil {
				t.Fatal(err)
			}
			refLog := filepath.Join(t.TempDir(), "ref.gso")
			w, err := outcome.Create(refLog, ds.Name)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range ref.Outcomes {
				rec, err := outcome.NewRecord(o, ref.Classifications[i])
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Write(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			wantLog, err := os.ReadFile(refLog)
			if err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{1, 8} {
				logPath := filepath.Join(t.TempDir(), "stream.gso")
				res, err := geosocial.ValidateFileOpts(path, geosocial.StreamOptions{Workers: workers, OutcomeLog: logPath})
				if err != nil {
					t.Fatal(err)
				}
				if res.Users != len(ds.Users) || res.Partition != ref.Partition {
					t.Fatalf("workers=%d: %d users, partition %+v; want %d, %+v",
						workers, res.Users, res.Partition, len(ds.Users), ref.Partition)
				}
				if !reflect.DeepEqual(res.Taxonomy, wantTax) {
					t.Fatalf("workers=%d: taxonomy %v, want %v", workers, res.Taxonomy, wantTax)
				}
				if res.Truth == nil || *res.Truth != wantTruth {
					t.Fatalf("workers=%d: truth %+v, want %+v", workers, res.Truth, wantTruth)
				}
				gotLog, err := os.ReadFile(logPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotLog, wantLog) {
					t.Fatalf("workers=%d: outcome log differs from the in-memory outcomes' log", workers)
				}
			}
		})
	}
}

// TestValidateShardsMatchesDataset validates K binary shards read
// concurrently: the merged partition is single-dataset validation's,
// and each shard's partition is its own users' in-memory partition, for
// shard counts {1, 3, 8} x worker counts {1, 8}.
func TestValidateShardsMatchesDataset(t *testing.T) {
	ds := onGrid(t, 0.05, 42)
	want := inMemory(t, ds).Partition
	for _, shards := range []int{1, 3, 8} {
		manifest, err := ds.SaveShards(t.TempDir(), trace.ShardOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := trace.OpenShardSet(manifest)
		if err != nil {
			t.Fatal(err)
		}
		perShard := make([]core.Partition, shards)
		for s := range perShard {
			perShard[s] = inMemory(t, shardUsers(t, ss, s)).Partition
		}
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				res, err := geosocial.ValidateFileWorkers(manifest, workers)
				if err != nil {
					t.Fatal(err)
				}
				if res.Users != len(ds.Users) || res.Partition != want {
					t.Fatalf("%d users, partition %+v; want %d, %+v", res.Users, res.Partition, len(ds.Users), want)
				}
				if len(res.Shards) != shards {
					t.Fatalf("%d shard stats, want %d", len(res.Shards), shards)
				}
				for s, st := range res.Shards {
					if st.Partition != perShard[s] {
						t.Fatalf("shard %d partition %+v, want %+v", s, st.Partition, perShard[s])
					}
				}
			})
		}
	}
}

// TestValidateShardsRejectsCrossShardDuplicates covers the corpus-wide
// duplicate user ID check the per-file readers cannot perform: the same
// file listed twice repeats every ID.
func TestValidateShardsRejectsCrossShardDuplicates(t *testing.T) {
	path := saveBin(t, onGrid(t, 0.02, 7))
	for _, workers := range []int{1, 8} {
		_, err := geosocial.ValidatePaths([]string{path, path}, geosocial.StreamOptions{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "duplicate user ID") {
			t.Fatalf("workers=%d: duplicate users accepted: %v", workers, err)
		}
	}
}

// rewriteShardGz replaces shard i's file with a gzip-compressed stream
// of the given users: new bytes (so a new checkpoint key) under the same
// manifest.
func rewriteShardGz(t *testing.T, ss *trace.ShardSet, i int, users []*trace.User) {
	t.Helper()
	part := shardUsers(t, ss, i)
	part.Users = users
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := part.WriteBinary(zw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ss.Dir, ss.Manifest.Shards[i].File), buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestResumeShards covers the checkpointed plan: a checkpointed shard
// is not streamed, live shards produce exactly the stats an
// uninterrupted run produces for them, and a live user colliding with a
// checkpointed shard's ID is still rejected.
func TestResumeShards(t *testing.T) {
	ds := onGrid(t, 0.05, 42)
	for _, workers := range []int{1, 8} {
		manifest, err := ds.SaveShards(t.TempDir(), trace.ShardOptions{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := trace.OpenShardSet(manifest)
		if err != nil {
			t.Fatal(err)
		}
		full, err := geosocial.ValidateFileWorkers(manifest, workers)
		if err != nil {
			t.Fatal(err)
		}
		var hits int
		opts := geosocial.StreamOptions{
			Workers:       workers,
			CheckpointDir: t.TempDir(),
			Logf: func(format string, _ ...any) {
				if strings.Contains(format, "checkpoint hit") {
					hits++
				}
			},
		}
		if _, err := geosocial.ValidateFileOpts(manifest, opts); err != nil {
			t.Fatal(err)
		}

		// Re-encode shards 1 and 2 (same users, new bytes): only shard 0
		// still has a checkpoint.
		for s := 1; s < 3; s++ {
			rewriteShardGz(t, ss, s, shardUsers(t, ss, s).Users)
		}
		hits = 0
		resumed, err := geosocial.ValidateFileOpts(manifest, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if hits != 1 {
			t.Fatalf("workers=%d: %d checkpoint hits, want 1", workers, hits)
		}
		if !reflect.DeepEqual(resumed, full) {
			t.Fatalf("workers=%d: resumed result %+v, want %+v", workers, resumed, full)
		}

		// A live user colliding with the checkpointed shard's IDs fails.
		dup := shardUsers(t, ss, 2).Users
		dup[0] = shardUsers(t, ss, 0).Users[0]
		rewriteShardGz(t, ss, 2, dup)
		_, err = geosocial.ValidateFileOpts(manifest, opts)
		if err == nil || !strings.Contains(err.Error(), "duplicate user ID") {
			t.Fatalf("workers=%d: duplicate of a checkpointed ID accepted: %v", workers, err)
		}
	}
}

// TestValidateStreamErrors covers the failure directions at both worker
// counts: a truncated source, an undecodable frame, and invalid
// matching parameters.
func TestValidateStreamErrors(t *testing.T) {
	ds := onGrid(t, 0.02, 4)
	path := saveBin(t, ds)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "truncated.bin")
	if err := os.WriteFile(truncated, raw[:2*len(raw)/3], 0o666); err != nil {
		t.Fatal(err)
	}
	// An empty dataset's stream ends in sentinel 0 and trailer count 0;
	// splice in one 3-byte frame whose user ID varint never terminates.
	var hdr bytes.Buffer
	if err := (&trace.Dataset{Name: ds.Name, POIs: ds.POIs}).WriteBinary(&hdr); err != nil {
		t.Fatal(err)
	}
	junk := append(hdr.Bytes()[:hdr.Len()-2], 3, 0xff, 0xff, 0xff, 0, 1)
	undecodable := filepath.Join(t.TempDir(), "junk.bin")
	if err := os.WriteFile(undecodable, junk, 0o666); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		if _, err := geosocial.ValidateFileWorkers(truncated, workers); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("workers=%d: source error not propagated: %v", workers, err)
		}
		if _, err := geosocial.ValidateFileWorkers(undecodable, workers); err == nil {
			t.Errorf("workers=%d: undecodable frame accepted", workers)
		}
		bad := geosocial.StreamOptions{Workers: workers, Params: core.Params{Alpha: -1, Beta: time.Minute}}
		if _, err := geosocial.ValidateFileOpts(path, bad); err == nil {
			t.Errorf("workers=%d: invalid params accepted", workers)
		}
	}
}
