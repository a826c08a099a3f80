// Package subjob implements the runtime of one subjob copy: the partition
// of a job's PEs placed on one machine, assembled as input queue → PE chain
// (connected by pipes) → output queue, together with its checkpointable
// snapshot and the message wiring that connects copies across machines.
package subjob

import "strings"

// Stream-name helpers. Transport messages are routed to components by an
// opaque Stream string; these helpers define the global naming convention.
// Data and ack streams are keyed by the copy-agnostic subjob ID, so every
// copy of a subjob listens on the same names (on its own machine) and
// replica identity never leaks into the data plane.

// DataStream names the input stream of subjob sj for the logical stream.
func DataStream(sj, logical string) string { return "data|" + sj + "|" + logical }

// AckStream names the acknowledgment stream of the subjob owning logical.
func AckStream(owner, logical string) string { return "ack|" + owner + "|" + logical }

// ResyncStream names the stream on which a restarted consumer asks the
// subjob owning logical to force-replay everything unacknowledged. Cold
// restarts send it after restoring from a durable checkpoint: data sent
// to the dead process is past the sender's watermark but was never
// delivered, and only a forced replay recovers it.
func ResyncStream(owner, logical string) string { return "resync|" + owner + "|" + logical }

// CkptStream names the checkpoint-store stream of subjob sj.
func CkptStream(sj string) string { return "ckpt|" + sj }

// CkptAckStream names the stream on which the checkpoint store confirms
// storage back to subjob sj's checkpoint manager.
func CkptAckStream(sj string) string { return "ckptack|" + sj }

// ReadStateStream names the stream on which a standby serves read-state
// requests for subjob sj.
func ReadStateStream(sj string) string { return "readstate|" + sj }

// HeartbeatStream names the heartbeat responder stream of a machine.
func HeartbeatStream(machineID string) string { return "hb|" + machineID }

// parseStream splits a stream name into its parts.
func parseStream(s string) []string { return strings.Split(s, "|") }
