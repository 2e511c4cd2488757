package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"datablinder/internal/cloud"
	"datablinder/internal/model"
	"datablinder/internal/transport"
)

// contendSchema pins one field on every tactic that answers equality or
// range searches, so one document exercises all of their write paths.
func contendSchema() *model.Schema {
	return &model.Schema{Name: "contend", Fields: []model.Field{
		field("det", model.TypeString, "C4, op [I, EQ], tactic [DET]"),
		field("mitra", model.TypeString, "C2, op [I, EQ], tactic [Mitra]"),
		field("sophos", model.TypeString, "C2, op [I, EQ], tactic [Sophos]"),
		field("biex", model.TypeString, "C3, op [I, EQ, BL], tactic [BIEX-2Lev]"),
		field("ope", model.TypeFloat, "C5, op [I, RG], tactic [OPE]"),
		field("ore", model.TypeFloat, "C5, op [I, RG], tactic [ORE]"),
	}}
}

// tcpEngine builds an engine over n in-process cloud nodes, each behind a
// real transport socket on localhost.
func tcpEngine(t *testing.T, n int, schema *model.Schema) *Engine {
	t.Helper()
	conns := make([]transport.Conn, n)
	for i := range conns {
		node, err := cloud.NewNode(cloud.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		srv := transport.NewServer(node.Mux)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if conns[i], err = transport.Dial(addr, transport.DialOptions{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conns[i].Close() })
	}
	return engineOver(t, conns, schema, Config{})
}

// TestContendedWritersMatchGet: several writers Update, Delete and
// re-Insert one caller-chosen id at once. Whatever order they land in,
// every search afterwards must agree with Get: a value's search returns the
// id exactly when the stored document holds that value, and a deleted id is
// reachable by no search.
func TestContendedWritersMatchGet(t *testing.T) {
	const trials = 20
	schema := contendSchema()
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-shard", shards), func(t *testing.T) {
			e := tcpEngine(t, shards, schema)
			for _, f := range schema.Fields {
				plan, err := e.Plan(schema.Name, f.Name)
				if err != nil || len(plan.Tactics) != 1 {
					t.Fatalf("field %s: plan %+v, %v; want its one pinned tactic", f.Name, plan, err)
				}
			}
			for _, writers := range []int{2, 8} {
				for trial := 0; trial < trials; trial++ {
					contendTrial(t, e, writers, trial)
				}
			}
		})
	}
}

// contendTrial runs one trial: the id starts with value 0, writer w
// (1-based) writes value w, and every value is then searched on every
// field.
func contendTrial(t *testing.T, e *Engine, writers, trial int) {
	t.Helper()
	ctx := context.Background()
	id := fmt.Sprintf("w%d-t%d", writers, trial)
	doc := func(k int) *model.Document {
		s := fmt.Sprintf("%s-v%d", id, k)
		x := float64(writers*1000 + trial*10 + k)
		return &model.Document{ID: id, Fields: map[string]any{
			"det": s, "mitra": s, "sophos": s, "biex": s, "ope": x, "ore": x,
		}}
	}
	if _, err := e.Insert(ctx, "contend", doc(0)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(writers*100 + trial)))
	ops := make([]int, writers)
	for w := range ops {
		ops[w] = rng.Intn(4) // 0, 1 update; 2 delete; 3 insert
	}
	start := make(chan struct{})
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch ops[w] {
			case 0, 1:
				if err := e.Update(ctx, "contend", doc(w+1)); !errors.Is(err, ErrDocumentMissing) {
					errs[w] = err
				}
			case 2:
				if err := e.Delete(ctx, "contend", id); !errors.Is(err, ErrDocumentMissing) {
					errs[w] = err
				}
			default:
				if _, err := e.Insert(ctx, "contend", doc(w+1)); !errors.Is(err, ErrDocumentExists) {
					errs[w] = err
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("%s: writer %d (op %d): %v", id, w, ops[w], err)
		}
	}

	stored, err := e.Get(ctx, "contend", id)
	if errors.Is(err, ErrDocumentMissing) {
		stored = nil
	} else if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= writers; k++ {
		want := doc(k)
		for name, v := range want.Fields {
			var p Predicate = Eq{Field: name, Value: v}
			if name == "ope" || name == "ore" {
				p = Between(name, v, v)
			}
			ids, err := e.SearchIDs(ctx, "contend", p)
			if err != nil {
				t.Fatalf("%s: search %s=%v: %v", id, name, v, err)
			}
			holds := stored != nil && stored.Fields[name] == v
			if found := slices.Contains(ids, id); found != holds {
				t.Fatalf("%s (writers' ops %v): search %s=%v finds the id: %v; stored document %v",
					id, ops, name, v, found, stored)
			}
		}
	}
}
