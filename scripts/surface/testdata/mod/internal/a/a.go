package a

// OwnTestOnly is called only by this package's test.
func OwnTestOnly() {}

// OtherTest is called only by package b's test.
func OtherTest() {}

// Square's Area is reached only through b.Shape; nothing calls its String.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) String() string { return "square" }

// Orphan is named only by its method's receiver.
type Orphan struct{}

func (o *Orphan) Use() {}

// Meter's Rate is never called; b.Info has a func field of the same name
// that is.
type Meter struct{}

func (m *Meter) Rate() float64 { return 0 }

// Config's Written is only ever assigned; Tagged is read by encoding/json;
// OwnRead is read only by this package's test, OtherRead only by package b's.
type Config struct {
	Written   int
	Tagged    int `json:"tagged"`
	OwnRead   int
	OtherRead int
}

// Log's entries are only ever appended to themselves.
type Log struct{ entries []int }

// Add appends x to l's entries.
func (l *Log) Add(x int) { l.entries = append(l.entries, x) }

// ExampleOnly is called only from examples/.
func ExampleOnly() {}

// Key's fields are read by every map that hashes a Key.
type Key struct{ X, Y int }
