// Command gateway is DataBlinder's trusted-zone CLI: it connects to a
// cloudserver, manages schemas and keys, and executes data-access
// operations through the middleware.
//
// Usage:
//
//	gateway [-cloud 127.0.0.1:7700 | -shard-addrs a:1,b:2,...] [-key master.key] [-state wal-dir] [-fsync policy] [-pprof addr] [-planner] <command> [args]
//
// Commands:
//
//	register <schema.json>            register an annotated schema
//	insert <schema> <doc.json|->      insert a document (- reads stdin)
//	get <schema> <id>                 fetch and decrypt a document
//	delete <schema> <id>              delete a document
//	search <schema> <field>=<value>   equality search
//	range <schema> <field> <lo> <hi>  numeric range search
//	agg <schema> <field> <fn> [<where-field>=<value>]  aggregate (sum/avg/count/min/max)
//	plan <schema> <field>             show a field's tactic plan
//	count <schema>                    count stored documents
//	replan                            re-evaluate unpinned fields against live costs
//	migrate <schema> <field> <tactic> online re-index one field onto a tactic
//	tactic-stats                      dump live per-tactic cost counters
//
// With -planner, schema registration picks the cheapest tactic satisfying
// each field's leakage budget instead of the classic
// highest-tolerated-leakage rule; `replan` migrates fields whose plan the
// live cost model has overtaken.
//
// The master key file is created on first use; the -state directory is a
// write-ahead log that persists tactic counters and schemas across gateway
// restarts.
//
// -shard-addrs routes to a sharded cloud tier (comma-separated, one
// address per shard). The list is positional: pass the same addresses in
// the same order on every start, or routing keys will resolve to the
// wrong shards.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"datablinder"
	"datablinder/internal/pprofserve"
)

func main() {
	cloudAddr := flag.String("cloud", "127.0.0.1:7700", "cloudserver address (single node)")
	shardAddrs := flag.String("shard-addrs", "", "comma-separated sharded cloud tier addresses (overrides -cloud; order is positional shard identity)")
	keyPath := flag.String("key", "datablinder-master.key", "master key file (created if absent)")
	statePath := flag.String("state", "datablinder-gateway.aof", "gateway state directory (a write-ahead log)")
	fsync := flag.String("fsync", "interval", "state WAL durability policy: always, interval, never")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	planner := flag.Bool("planner", false, "cost-based tactic selection: pick the cheapest tactic within each field's leakage budget")
	flag.Parse()

	stopPprof, err := pprofserve.Start(*pprofAddr)
	if err != nil {
		log.Fatalf("gateway: pprof: %v", err)
	}
	defer stopPprof()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: gateway [flags] <command> [args]; see -h")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	opts := datablinder.Options{
		MasterKeyPath:  *keyPath,
		CreateKey:      true,
		LocalStatePath: *statePath,
		FsyncPolicy:    *fsync,
		Planner:        *planner,
	}
	if *shardAddrs != "" {
		for _, addr := range strings.Split(*shardAddrs, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				opts.CloudAddrs = append(opts.CloudAddrs, addr)
			}
		}
	} else {
		opts.CloudAddr = *cloudAddr
	}
	client, err := datablinder.Open(ctx, opts)
	if err != nil {
		log.Fatalf("gateway: %v", err)
	}
	defer client.Close()

	if err := dispatch(ctx, client, flag.Args()); err != nil {
		log.Fatalf("gateway: %v", err)
	}
}

func dispatch(ctx context.Context, client *datablinder.Client, args []string) error {
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "register":
		return cmdRegister(ctx, client, rest)
	case "insert":
		return cmdInsert(ctx, client, rest)
	case "get":
		return cmdGet(ctx, client, rest)
	case "delete":
		return cmdDelete(ctx, client, rest)
	case "search":
		return cmdSearch(ctx, client, rest)
	case "range":
		return cmdRange(ctx, client, rest)
	case "agg":
		return cmdAgg(ctx, client, rest)
	case "plan":
		return cmdPlan(client, rest)
	case "count":
		return cmdCount(ctx, client, rest)
	case "replan":
		return cmdReplan(ctx, client, rest)
	case "migrate":
		return cmdMigrate(ctx, client, rest)
	case "tactic-stats":
		return printJSON(client.TacticStats())
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func cmdRegister(ctx context.Context, client *datablinder.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("register <schema.json>")
	}
	raw, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	var s datablinder.Schema
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("decoding schema: %w", err)
	}
	if err := client.RegisterSchema(ctx, &s); err != nil {
		return err
	}
	fmt.Printf("registered schema %q with %d sensitive fields\n", s.Name, len(s.SensitiveFields()))
	return nil
}

func cmdInsert(ctx context.Context, client *datablinder.Client, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("insert <schema> <doc.json|->")
	}
	var raw []byte
	var err error
	if args[1] == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(args[1])
	}
	if err != nil {
		return err
	}
	var doc datablinder.Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("decoding document: %w", err)
	}
	id, err := client.Entities(args[0]).Insert(ctx, &doc)
	if err != nil {
		return err
	}
	fmt.Printf("inserted %s\n", id)
	return nil
}

func cmdGet(ctx context.Context, client *datablinder.Client, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("get <schema> <id>")
	}
	doc, err := client.Entities(args[0]).Get(ctx, args[1])
	if err != nil {
		return err
	}
	return printJSON(doc)
}

func cmdDelete(ctx context.Context, client *datablinder.Client, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("delete <schema> <id>")
	}
	if err := client.Entities(args[0]).Delete(ctx, args[1]); err != nil {
		return err
	}
	fmt.Printf("deleted %s\n", args[1])
	return nil
}

// parseEq parses "field=value" into an equality predicate, guessing the
// value type (int, float, then string).
func parseEq(s string) (datablinder.Eq, error) {
	field, value, ok := strings.Cut(s, "=")
	if !ok {
		return datablinder.Eq{}, fmt.Errorf("want field=value, got %q", s)
	}
	return datablinder.Eq{Field: field, Value: parseScalar(value)}, nil
}

func parseScalar(s string) any {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}

func cmdSearch(ctx context.Context, client *datablinder.Client, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("search <schema> <field>=<value>")
	}
	eq, err := parseEq(args[1])
	if err != nil {
		return err
	}
	docs, err := client.Entities(args[0]).Search(ctx, eq)
	if err != nil {
		return err
	}
	fmt.Printf("%d matching documents\n", len(docs))
	return printJSON(docs)
}

func cmdRange(ctx context.Context, client *datablinder.Client, args []string) error {
	if len(args) != 4 {
		return fmt.Errorf("range <schema> <field> <lo> <hi>")
	}
	docs, err := client.Entities(args[0]).Search(ctx,
		datablinder.Between(args[1], parseScalar(args[2]), parseScalar(args[3])))
	if err != nil {
		return err
	}
	fmt.Printf("%d matching documents\n", len(docs))
	return printJSON(docs)
}

func cmdAgg(ctx context.Context, client *datablinder.Client, args []string) error {
	if len(args) != 3 && len(args) != 4 {
		return fmt.Errorf("agg <schema> <field> <fn> [<where-field>=<value>]")
	}
	var where datablinder.Predicate
	if len(args) == 4 {
		eq, err := parseEq(args[3])
		if err != nil {
			return err
		}
		where = eq
	}
	v, err := client.Entities(args[0]).Aggregate(ctx, args[1], datablinder.Agg(args[2]), where)
	if err != nil {
		return err
	}
	fmt.Printf("%s(%s) = %g\n", args[2], args[1], v)
	return nil
}

func cmdPlan(client *datablinder.Client, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("plan <schema> <field>")
	}
	ops, aggs, effective, err := client.FieldPlan(args[0], args[1])
	if err != nil {
		return err
	}
	fmt.Printf("field %s.%s (effective protection %s)\n", args[0], args[1], effective)
	for op, tactic := range ops {
		fmt.Printf("  %-4s -> %s\n", string(op), tactic)
	}
	for agg, tactic := range aggs {
		fmt.Printf("  %-4s -> %s\n", string(agg), tactic)
	}
	return nil
}

func cmdCount(ctx context.Context, client *datablinder.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("count <schema>")
	}
	n, err := client.Entities(args[0]).Count(ctx)
	if err != nil {
		return err
	}
	fmt.Println(n)
	return nil
}

func cmdReplan(ctx context.Context, client *datablinder.Client, args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("replan takes no arguments")
	}
	migrated, err := client.Replan(ctx)
	if err != nil {
		return err
	}
	if len(migrated) == 0 {
		fmt.Println("all plans already optimal")
		return nil
	}
	for _, f := range migrated {
		fmt.Printf("migrated %s\n", f)
	}
	return nil
}

func cmdMigrate(ctx context.Context, client *datablinder.Client, args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("migrate <schema> <field> <tactic>")
	}
	if err := client.Migrate(ctx, args[0], args[1], args[2]); err != nil {
		return err
	}
	fmt.Printf("migrated %s.%s to %s\n", args[0], args[1], args[2])
	return nil
}

func printJSON(v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
