package transport

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

type echoArgs struct {
	Msg string `json:"msg"`
}

type echoReply struct {
	Msg string `json:"msg"`
}

func testMux() *Mux {
	mux := NewMux()
	mux.Handle("test", "echo", func(_ context.Context, payload json.RawMessage) (any, error) {
		var in echoArgs
		if err := json.Unmarshal(payload, &in); err != nil {
			return nil, err
		}
		return echoReply{Msg: in.Msg}, nil
	})
	mux.Handle("test", "fail", func(_ context.Context, _ json.RawMessage) (any, error) {
		return nil, errors.New("document not found: obs/x")
	})
	mux.Handle("test", "add", func(_ context.Context, payload json.RawMessage) (any, error) {
		var in struct{ A, B int }
		if err := json.Unmarshal(payload, &in); err != nil {
			return nil, err
		}
		return map[string]int{"sum": in.A + in.B}, nil
	})
	return mux
}

func startServer(t *testing.T) (string, *Server) {
	t.Helper()
	srv := NewServer(testMux())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func TestTCPRoundTrip(t *testing.T) {
	addr, _ := startServer(t)
	client, err := Dial(addr, DialOptions{PoolSize: 2})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	var reply echoReply
	if err := client.Call(context.Background(), "test", "echo", echoArgs{Msg: "hi"}, &reply); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.Msg != "hi" {
		t.Fatalf("reply = %q", reply.Msg)
	}
}

func TestRemoteErrorPropagation(t *testing.T) {
	addr, _ := startServer(t)
	client, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	err = client.Call(context.Background(), "test", "fail", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error type = %T (%v), want RemoteError", err, err)
	}
	if !strings.Contains(re.Msg, "not found") {
		t.Fatalf("remote message = %q", re.Msg)
	}
	if re.Code != "" || IsNotFoundError(err) {
		t.Fatalf("uncoded handler error arrived coded %q / classified as not-found", re.Code)
	}
}

func TestUnknownMethod(t *testing.T) {
	addr, _ := startServer(t)
	client, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	err = client.Call(context.Background(), "test", "nope", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Fatalf("unknown method error = %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	addr, _ := startServer(t)
	client, err := Dial(addr, DialOptions{PoolSize: 4})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var reply struct{ Sum int }
				if err := client.Call(context.Background(), "test", "add",
					map[string]int{"A": g, "B": i}, &reply); err != nil {
					errs <- err
					return
				}
				if reply.Sum != g+i {
					errs <- fmt.Errorf("sum = %d, want %d", reply.Sum, g+i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestLoopbackMatchesTCPSemantics(t *testing.T) {
	lb := NewLoopback(testMux())
	defer lb.Close()

	var reply echoReply
	if err := lb.Call(context.Background(), "test", "echo", echoArgs{Msg: "local"}, &reply); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.Msg != "local" {
		t.Fatalf("reply = %q", reply.Msg)
	}
	err := lb.Call(context.Background(), "test", "fail", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("loopback error type = %T", err)
	}
	if err := lb.Call(context.Background(), "test", "nope", nil, nil); err == nil {
		t.Fatal("loopback accepted unknown method")
	}
}

func TestLoopbackClosed(t *testing.T) {
	lb := NewLoopback(testMux())
	lb.Close()
	if err := lb.Call(context.Background(), "test", "echo", echoArgs{}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close = %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	mux := NewMux()
	mux.Handle("slow", "sleep", func(ctx context.Context, _ json.RawMessage) (any, error) {
		select {
		case <-time.After(500 * time.Millisecond):
			return "done", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv := NewServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	client, err := Dial(addr, DialOptions{Timeout: time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = client.Call(ctx, "slow", "sleep", nil, nil)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestClientRecoversAfterTimeout(t *testing.T) {
	addr, _ := startServer(t)
	client, err := Dial(addr, DialOptions{PoolSize: 1, Timeout: time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	// Force a deadline failure, then verify the pooled socket still works.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	cancel()
	_ = client.Call(ctx, "test", "echo", echoArgs{Msg: "x"}, nil)

	var reply echoReply
	if err := client.Call(context.Background(), "test", "echo", echoArgs{Msg: "recovered"}, &reply); err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
	if reply.Msg != "recovered" {
		t.Fatalf("reply = %q", reply.Msg)
	}
}

// TestServerSurvivesGarbageFrames: a socket that opens with anything but a
// hello of this protocol version is dropped — no panic, no reply on some
// other framing — and the accept loop keeps serving well-formed clients.
func TestServerSurvivesGarbageFrames(t *testing.T) {
	addr, _ := startServer(t)

	hello := rawFrame(appendHello(nil, RegisteredWireMethods()))
	v1Hello := `{"id":1,"service":"_wire","method":"hello","payload":{"version":2,"methods":["doc.get"]}}`
	otherVersion := appendHello(nil, nil)
	otherVersion[1]++
	probes := []struct {
		name  string
		bytes []byte
		// hangUp: the probe is incomplete, so the server is still reading;
		// it can only be dropped by the peer going away.
		hangUp bool
	}{
		{name: "v1 length-prefixed JSON hello", bytes: append(binary.BigEndian.AppendUint32(nil, uint32(len(v1Hello))), v1Hello...)},
		{name: "frame length beyond the limit", bytes: binary.AppendUvarint(nil, MaxFrameSize+1)},
		{name: "random garbage", bytes: rawFrame([]byte{0xde, 0xad, 0xbe, 0xef, 0x99})},
		{name: "request before any hello", bytes: rawFrame(appendCall(binary.AppendUvarint([]byte{wireKindReq}, 1), registryTable(), "test.echo", encJSON, []byte(`{}`)))},
		{name: "hello of another version", bytes: rawFrame(otherVersion)},
		{name: "hello with trailing bytes", bytes: rawFrame(append(appendHello(nil, []string{"doc.get"}), 0x00))},
		{name: "truncated hello", bytes: hello[:len(hello)/2], hangUp: true},
		{name: "length prefix promising more than is sent", bytes: []byte{0xff, 0xff, 0x03, '{', 'b', 'a', 'd'}, hangUp: true},
	}
	for _, probe := range probes {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: dial: %v", probe.name, err)
		}
		conn.Write(probe.bytes)
		if !probe.hangUp {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			// EOF, or a reset when the server closed over unread bytes.
			if n, err := conn.Read(make([]byte, 64)); n != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("%s: server answered %d bytes / %v, want the socket dropped", probe.name, n, err)
			}
		}
		conn.Close()
	}

	// The server must still answer well-formed clients.
	client, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	var reply echoReply
	if err := client.Call(context.Background(), "test", "echo", echoArgs{Msg: "ok"}, &reply); err != nil {
		t.Fatalf("Call after garbage: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(testMux())
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", DialOptions{Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}

func TestMuxServices(t *testing.T) {
	mux := testMux()
	svcs := mux.Services()
	if len(svcs) != 3 {
		t.Fatalf("Services = %v", svcs)
	}
}

func BenchmarkLoopbackCall(b *testing.B) {
	lb := NewLoopback(testMux())
	defer lb.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var reply echoReply
		if err := lb.Call(ctx, "test", "echo", echoArgs{Msg: "x"}, &reply); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPCall(b *testing.B) {
	srv := NewServer(testMux())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	client, err := Dial(addr, DialOptions{PoolSize: 2})
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var reply echoReply
		if err := client.Call(ctx, "test", "echo", echoArgs{Msg: "x"}, &reply); err != nil {
			b.Fatal(err)
		}
	}
}
