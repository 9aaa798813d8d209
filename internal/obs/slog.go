package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
)

// defaultLogger is the process-wide logger components write through
// (WAL recovery notices, process lifecycle, lease expiry). Until
// SetDefault installs one it is a logger whose handler is never
// enabled, so a log call formats nothing and writes nothing.
var defaultLogger atomic.Pointer[slog.Logger]

func init() { SetDefault(nil) }

// SetDefault installs the process-wide logger; nil restores the silent
// one. Commands install slog.NewJSONHandler(os.Stderr, ...) for their
// -log-json flag.
func SetDefault(l *slog.Logger) {
	if l == nil {
		l = slog.New(silent{})
	}
	defaultLogger.Store(l)
}

// Default returns the process-wide logger; it is never nil.
func Default() *slog.Logger { return defaultLogger.Load() }

// silent is the handler of the unset logger: no level is enabled.
type silent struct{}

func (silent) Enabled(context.Context, slog.Level) bool  { return false }
func (silent) Handle(context.Context, slog.Record) error { return nil }
func (s silent) WithAttrs([]slog.Attr) slog.Handler      { return s }
func (s silent) WithGroup(string) slog.Handler           { return s }
