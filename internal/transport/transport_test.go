package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"datablinder/internal/wirefmt"
)

// tmsg is the one payload every test method speaks, as args and as reply.
type tmsg struct {
	S    string
	A, B int64
}

// testMethods have the tmsg codec, so they are in the test binary's method
// table. test.nope has no handler on any test mux.
var testMethods = []string{
	"test.echo", "test.fail", "test.add", "test.coded", "test.nope",
	"slow.sleep", "probe.run", "echo.id", "svc.echo", "svc.m", "x.y",
	"wire.count",
}

func init() {
	enc := func(b []byte, m *tmsg) []byte {
		b = wirefmt.AppendString(b, m.S)
		b = wirefmt.AppendInt64(b, m.A)
		return wirefmt.AppendInt64(b, m.B)
	}
	dec := func(r *wirefmt.Reader, m *tmsg) {
		m.S, m.A, m.B = r.String(), r.Int64(), r.Int64()
	}
	for _, name := range testMethods {
		service, method, _ := strings.Cut(name, ".")
		RegisterCodec(service, method, Codec(enc, dec, enc, dec))
	}
}

// handle registers fn for one of testMethods.
func handle(mux *Mux, name string, fn func(ctx context.Context, m *tmsg) (any, error)) {
	service, method, _ := strings.Cut(name, ".")
	HandleTyped(mux, service, method, fn)
}

func testMux() *Mux {
	mux := NewMux()
	handle(mux, "test.echo", func(_ context.Context, in *tmsg) (any, error) {
		return tmsg{S: in.S}, nil
	})
	handle(mux, "test.fail", func(context.Context, *tmsg) (any, error) {
		return nil, errors.New("document not found: obs/x")
	})
	handle(mux, "test.add", func(_ context.Context, in *tmsg) (any, error) {
		return tmsg{A: in.A + in.B}, nil
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

	var reply tmsg
	if err := client.Call(context.Background(), "test", "echo", tmsg{S: "hi"}, &reply); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.S != "hi" {
		t.Fatalf("reply = %q", reply.S)
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
				var reply tmsg
				if err := client.Call(context.Background(), "test", "add",
					tmsg{A: int64(g), B: int64(i)}, &reply); err != nil {
					errs <- err
					return
				}
				if reply.A != int64(g+i) {
					errs <- fmt.Errorf("sum = %d, want %d", reply.A, g+i)
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

	var reply tmsg
	if err := lb.Call(context.Background(), "test", "echo", tmsg{S: "local"}, &reply); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if reply.S != "local" {
		t.Fatalf("reply = %q", reply.S)
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
	if err := lb.Call(context.Background(), "test", "echo", tmsg{}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close = %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	mux := NewMux()
	handle(mux, "slow.sleep", func(ctx context.Context, _ *tmsg) (any, error) {
		select {
		case <-time.After(500 * time.Millisecond):
			return tmsg{S: "done"}, nil
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
	_ = client.Call(ctx, "test", "echo", tmsg{S: "x"}, nil)

	var reply tmsg
	if err := client.Call(context.Background(), "test", "echo", tmsg{S: "recovered"}, &reply); err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
	if reply.S != "recovered" {
		t.Fatalf("reply = %q", reply.S)
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
	otherVersion[1]--
	request, _, _, err := appendCallArgs(binary.AppendUvarint([]byte{wireKindReq}, 1), "test", "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
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
		{name: "request before any hello", bytes: rawFrame(request)},
		{name: "hello of the previous version", bytes: rawFrame(otherVersion)},
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
	var reply tmsg
	if err := client.Call(context.Background(), "test", "echo", tmsg{S: "ok"}, &reply); err != nil {
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

// TestWireStatsExactAfterEachCall: once a call returns, the wire counters
// hold both of its frames on both sides of an in-process TCP pair. The
// client bills its request and the server's response, the server the
// request and its response, so each call adds two frames out and two in to
// its method, equal bytes each way, and four frames to the codec totals.
// The server bills its response before writing it; billed after, a
// snapshot taken as the call returns could miss it.
func TestWireStatsExactAfterEachCall(t *testing.T) {
	mux := NewMux()
	handle(mux, "wire.count", func(_ context.Context, in *tmsg) (any, error) {
		return tmsg{S: in.S + in.S}, nil
	})
	srv := NewServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr, DialOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	prev := WireStats()
	for i := 0; i < 500; i++ {
		var reply tmsg
		if err := client.Call(context.Background(), "wire", "count", tmsg{S: strings.Repeat("x", i%40)}, &reply); err != nil {
			t.Fatal(err)
		}
		cur := WireStats()
		a, b := prev.Methods["wire.count"], cur.Methods["wire.count"]
		frames := cur.Codecs["binary"].Frames - prev.Codecs["binary"].Frames
		out, in := b.BytesOut-a.BytesOut, b.BytesIn-a.BytesIn
		if b.FramesOut-a.FramesOut != 2 || b.FramesIn-a.FramesIn != 2 || frames != 4 {
			t.Fatalf("call %d: frames out +%d, in +%d, codec +%d; want +2, +2, +4",
				i, b.FramesOut-a.FramesOut, b.FramesIn-a.FramesIn, frames)
		}
		if out != in || out == 0 || cur.TotalBytes()-prev.TotalBytes() != out+in {
			t.Fatalf("call %d: bytes out +%d, in +%d, codec +%d", i, out, in, cur.TotalBytes()-prev.TotalBytes())
		}
		prev = cur
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
		var reply tmsg
		if err := lb.Call(ctx, "test", "echo", tmsg{S: "x"}, &reply); err != nil {
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
		var reply tmsg
		if err := client.Call(ctx, "test", "echo", tmsg{S: "x"}, &reply); err != nil {
			b.Fatal(err)
		}
	}
}
