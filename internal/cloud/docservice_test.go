package cloud

import (
	"context"
	"testing"

	"datablinder/internal/transport"
)

func docNode(t *testing.T) (*Node, transport.Conn) {
	t.Helper()
	node, err := NewNode(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	conn := transport.NewLoopback(node.Mux)
	t.Cleanup(func() { conn.Close() })
	return node, conn
}

// TestDocServiceErrorCodes verifies the doc service attaches structured
// codes so gateways never have to match on error strings.
func TestDocServiceErrorCodes(t *testing.T) {
	_, conn := docNode(t)
	ctx := context.Background()

	err := conn.Call(ctx, DocService, "get", DocGetArgs{Collection: "c", ID: "nope"}, nil)
	if transport.ErrorCode(err) != transport.CodeNotFound {
		t.Fatalf("get missing: code = %q (err %v)", transport.ErrorCode(err), err)
	}
	err = conn.Call(ctx, DocService, "delete", DocDeleteArgs{Collection: "c", ID: "nope"}, nil)
	if transport.ErrorCode(err) != transport.CodeNotFound {
		t.Fatalf("delete missing: code = %q (err %v)", transport.ErrorCode(err), err)
	}
	if err := conn.Call(ctx, DocService, "put",
		DocPutArgs{Collection: "c", ID: "x", Blob: []byte("1"), IfAbsent: true}, nil); err != nil {
		t.Fatal(err)
	}
	err = conn.Call(ctx, DocService, "put",
		DocPutArgs{Collection: "c", ID: "x", Blob: []byte("2"), IfAbsent: true}, nil)
	if transport.ErrorCode(err) != transport.CodeAlreadyExists {
		t.Fatalf("duplicate put: code = %q (err %v)", transport.ErrorCode(err), err)
	}
}

// TestCodesSurviveTCP runs the same coded-error checks across a real
// socket: the code must travel inside the response frame.
func TestCodesSurviveTCP(t *testing.T) {
	node, err := NewNode(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv := transport.NewServer(node.Mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := transport.Dial(addr, transport.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx := context.Background()
	err = conn.Call(ctx, DocService, "get", DocGetArgs{Collection: "c", ID: "nope"}, nil)
	if transport.ErrorCode(err) != transport.CodeNotFound {
		t.Fatalf("code over TCP = %q (err %v)", transport.ErrorCode(err), err)
	}
	if !transport.IsNotFoundError(err) {
		t.Fatalf("IsNotFoundError over TCP = false (err %v)", err)
	}
}
