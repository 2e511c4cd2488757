package datablinder_test

// Online re-index end-to-end tests.
//
// TestReindexOnlineUnderLiveTraffic migrates a range field between
// tactics while concurrent verified queries and writes run against the
// same client: every query must return exactly the plaintext ground
// truth before, during, and after the cutover (run under -race in CI).
//
// TestReindexResumesAfterSIGKILL re-executes the test binary as a child
// gateway that starts a throttled migration over persistent stores, kills
// it with SIGKILL mid-flight, and reopens the same stores: schema
// recovery must resume the journaled migration to completion, and every
// query must match the pre-crash ground truth.

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"datablinder"
)

// meterSchema is a dedicated unpinned range schema: classic selection
// starts "reading" on OPE, so migrations move it to ORE.
func meterSchema() *datablinder.Schema {
	return &datablinder.Schema{
		Name: "meter",
		Fields: []datablinder.Field{
			datablinder.PlainField("ref", datablinder.TypeString),
			datablinder.MustField("reading", datablinder.TypeFloat, "C5, op [I, RG]"),
		},
	}
}

func meterDoc(i int) *datablinder.Document {
	return &datablinder.Document{
		ID:     fmt.Sprintf("m%04d", i),
		Fields: map[string]any{"ref": fmt.Sprintf("meter-%d", i), "reading": float64(i)},
	}
}

// meterIDs returns the sorted ids a reading range [lo, hi] must match
// given docs seeded by meterDoc over [0, n).
func meterIDs(lo, hi, n int, drop map[int]bool) []string {
	var out []string
	for i := lo; i <= hi && i < n; i++ {
		if i < 0 || drop[i] {
			continue
		}
		out = append(out, fmt.Sprintf("m%04d", i))
	}
	sort.Strings(out)
	return out
}

func rangePlan(t *testing.T, client *datablinder.Client, schema, field string) string {
	t.Helper()
	ops, _, _, err := client.FieldPlan(schema, field)
	if err != nil {
		t.Fatalf("FieldPlan(%s.%s): %v", schema, field, err)
	}
	return ops["RG"]
}

func TestReindexOnlineUnderLiveTraffic(t *testing.T) {
	ctx := context.Background()
	client, err := datablinder.Open(ctx, datablinder.Options{
		InProcessCloud:  true,
		MigrateThrottle: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RegisterSchema(ctx, meterSchema()); err != nil {
		t.Fatal(err)
	}
	col := client.Entities("meter")

	const docs = 600
	for i := 0; i < docs; i++ {
		if _, err := col.Insert(ctx, meterDoc(i)); err != nil {
			t.Fatalf("seeding doc %d: %v", i, err)
		}
	}
	if got := rangePlan(t, client, "meter", "reading"); got != "OPE" {
		t.Fatalf("initial range tactic = %s, want OPE", got)
	}

	// Queried window [100, 140] stays untouched by the live writes below,
	// so its ground truth is constant throughout.
	want := meterIDs(100, 140, docs, nil)
	verify := func(when string) {
		got := sortedIDs(t, col, datablinder.Between("reading", 100.0, 140.0))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: range [100,140] = %v, want %v", when, got, want)
		}
	}
	verify("before migration")

	migErr := make(chan error, 1)
	go func() { migErr <- client.Migrate(ctx, "meter", "reading", "ORE") }()

	// Live traffic through the dual-write window: verified queries plus
	// writes outside the verified window.
	during, extra := 0, 0
	var deleted, done bool
	for !done {
		select {
		case err := <-migErr:
			if err != nil {
				t.Fatalf("migrate: %v", err)
			}
			done = true
		default:
		}
		if len(client.MigrationsActive()) > 0 {
			during++
			verify("during migration")
			if _, err := col.Insert(ctx, meterDoc(docs+extra)); err != nil {
				t.Fatalf("live insert: %v", err)
			}
			extra++
			if !deleted {
				if err := col.Delete(ctx, "m0500"); err != nil {
					t.Fatalf("live delete: %v", err)
				}
				deleted = true
			}
		} else if !done {
			time.Sleep(time.Millisecond)
		}
	}
	if during == 0 {
		t.Fatal("no verified queries ran during the migration window")
	}
	if got := rangePlan(t, client, "meter", "reading"); got != "ORE" {
		t.Fatalf("range tactic after migration = %s, want ORE", got)
	}
	verify("after migration")

	// The live writes must be visible through the new index.
	got := sortedIDs(t, col, datablinder.Between("reading", float64(docs), float64(docs+extra)))
	if len(got) != extra {
		t.Errorf("live inserts visible after cutover = %d, want %d", len(got), extra)
	}
	got = sortedIDs(t, col, datablinder.Between("reading", 500.0, 500.0))
	if len(got) != 0 {
		t.Errorf("deleted m0500 still matches after cutover: %v", got)
	}
}

const reindexChildEnv = "DATABLINDER_REINDEX_CHILD_DIR"

// TestReindexChildHelper is the SIGKILL test's child body, not a test in
// its own right: it reopens the parent's stores, starts a throttled
// migration, reports progress on stdout, and waits to be killed.
func TestReindexChildHelper(t *testing.T) {
	dir := os.Getenv(reindexChildEnv)
	if dir == "" {
		t.Skip("child helper; driven by TestReindexResumesAfterSIGKILL")
	}
	ctx := context.Background()
	client, err := datablinder.Open(ctx, reindexOptions(dir, 300*time.Millisecond))
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := client.Migrate(ctx, "meter", "reading", "ORE"); err != nil {
			fmt.Printf("child-migrate-error: %v\n", err)
			return
		}
		fmt.Println("child-migration-done")
	}()
	for len(client.MigrationsActive()) == 0 {
		time.Sleep(time.Millisecond)
	}
	fmt.Println("child-migrating")
	os.Stdout.Sync()
	wg.Wait()             // SIGKILL lands here, mid-backfill
	time.Sleep(time.Hour) // never reached before the kill; bounded by the test timeout
}

func reindexOptions(dir string, throttle time.Duration) datablinder.Options {
	return datablinder.Options{
		InProcessCloud:  true,
		MasterKeyPath:   filepath.Join(dir, "master.key"),
		CreateKey:       true,
		LocalStatePath:  filepath.Join(dir, "gateway-state"),
		CloudKVPath:     filepath.Join(dir, "cloud-index"),
		FsyncPolicy:     "always",
		MigrateThrottle: throttle,
	}
}

func TestReindexResumesAfterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process and seeds a 600-doc corpus")
	}
	ctx := context.Background()
	dir := t.TempDir()

	// Seed the persistent corpus and record the ground truth.
	client, err := datablinder.Open(ctx, reindexOptions(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.RegisterSchema(ctx, meterSchema()); err != nil {
		t.Fatal(err)
	}
	col := client.Entities("meter")
	const docs = 600
	for i := 0; i < docs; i++ {
		if _, err := col.Insert(ctx, meterDoc(i)); err != nil {
			t.Fatalf("seeding doc %d: %v", i, err)
		}
	}
	want := meterIDs(250, 290, docs, nil)
	if got := sortedIDs(t, col, datablinder.Between("reading", 250.0, 290.0)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pre-crash range = %v, want %v", got, want)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	// Child: reopen the stores, start the throttled migration, get killed
	// mid-backfill.
	cmd := exec.Command(os.Args[0], "-test.run", "^TestReindexChildHelper$", "-test.v")
	cmd.Env = append(os.Environ(), reindexChildEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting child: %v", err)
	}
	defer cmd.Process.Kill()

	migrating := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if line == "child-migrating" || line == "child-migration-done" ||
				strings.HasPrefix(line, "child-migrate-error") {
				migrating <- line
				return
			}
		}
		migrating <- "child exited without migrating"
	}()
	select {
	case line := <-migrating:
		if line != "child-migrating" {
			t.Fatalf("child: %s", line)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("timed out waiting for the child to open the migration window")
	}
	// Let the dual-write window open and the backfill start, then kill
	// without any cleanup. The 300ms inter-batch throttle over a 600-doc
	// (3-batch) scan keeps the migration mid-flight far longer than this.
	time.Sleep(50 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("killing child: %v", err)
	}
	cmd.Wait()

	// Reopen: schema recovery must resume the journaled migration and
	// drive it to completion.
	client, err = datablinder.Open(ctx, reindexOptions(dir, 0))
	if err != nil {
		t.Fatalf("reopening after crash: %v", err)
	}
	defer client.Close()
	col = client.Entities("meter")

	deadline := time.Now().Add(30 * time.Second)
	for {
		if len(client.MigrationsActive()) == 0 && rangePlan(t, client, "meter", "reading") == "ORE" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed migration did not finish: active=%v plan=%s",
				client.MigrationsActive(), rangePlan(t, client, "meter", "reading"))
		}
		time.Sleep(20 * time.Millisecond)
	}

	if got := sortedIDs(t, col, datablinder.Between("reading", 250.0, 290.0)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("post-resume range = %v, want %v", got, want)
	}
	n, err := col.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != docs {
		t.Errorf("count after resume = %d, want %d", n, docs)
	}

	// The resumed index must absorb fresh writes.
	if _, err := col.Insert(ctx, meterDoc(docs)); err != nil {
		t.Fatalf("insert after resume: %v", err)
	}
	if err := col.Delete(ctx, "m0260"); err != nil {
		t.Fatalf("delete after resume: %v", err)
	}
	want = meterIDs(250, 290, docs, map[int]bool{260: true})
	if got := sortedIDs(t, col, datablinder.Between("reading", 250.0, 290.0)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("range after post-resume writes = %v, want %v", got, want)
	}
}
