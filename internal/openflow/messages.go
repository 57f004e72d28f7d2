package openflow

import (
	"encoding/binary"
	"fmt"
)

// Hello opens the handshake.
type Hello struct{}

// Type implements Message.
func (*Hello) Type() MsgType                        { return TypeHello }
func (*Hello) marshalBody(b []byte) ([]byte, error) { return b, nil }
func (*Hello) unmarshalBody([]byte) error           { return nil }

// EchoRequest is the liveness probe; Scotch uses it as the vSwitch
// heartbeat (§5.6 of the paper).
type EchoRequest struct{ Data []byte }

// Type implements Message.
func (*EchoRequest) Type() MsgType { return TypeEchoRequest }
func (m *EchoRequest) marshalBody(b []byte) ([]byte, error) {
	return append(b, m.Data...), nil
}
func (m *EchoRequest) unmarshalBody(b []byte) error {
	if len(b) > 0 {
		m.Data = b // alias: the wire buffer is dead once the message is handled
	}
	return nil
}

// EchoReply answers an EchoRequest, echoing its data.
type EchoReply struct{ Data []byte }

// Type implements Message.
func (*EchoReply) Type() MsgType { return TypeEchoReply }
func (m *EchoReply) marshalBody(b []byte) ([]byte, error) {
	return append(b, m.Data...), nil
}
func (m *EchoReply) unmarshalBody(b []byte) error {
	if len(b) > 0 {
		m.Data = b // alias: the wire buffer is dead once the message is handled
	}
	return nil
}

// FeaturesRequest asks a switch for its datapath identity.
type FeaturesRequest struct{}

// Type implements Message.
func (*FeaturesRequest) Type() MsgType                        { return TypeFeaturesRequest }
func (*FeaturesRequest) marshalBody(b []byte) ([]byte, error) { return b, nil }
func (*FeaturesRequest) unmarshalBody([]byte) error           { return nil }

// FeaturesReply announces the datapath id and table capacity.
type FeaturesReply struct {
	DatapathID   uint64
	NBuffers     uint32
	NTables      uint8
	AuxiliaryID  uint8
	Capabilities uint32
}

// Type implements Message.
func (*FeaturesReply) Type() MsgType { return TypeFeaturesReply }
func (m *FeaturesReply) marshalBody(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint64(b, m.DatapathID)
	b = binary.BigEndian.AppendUint32(b, m.NBuffers)
	b = append(b, m.NTables, m.AuxiliaryID, 0, 0)
	b = binary.BigEndian.AppendUint32(b, m.Capabilities)
	return binary.BigEndian.AppendUint32(b, 0), nil
}
func (m *FeaturesReply) unmarshalBody(b []byte) error {
	if len(b) < 24 {
		return fmt.Errorf("openflow: features reply truncated")
	}
	m.DatapathID = binary.BigEndian.Uint64(b)
	m.NBuffers = binary.BigEndian.Uint32(b[8:])
	m.NTables = b[12]
	m.AuxiliaryID = b[13]
	m.Capabilities = binary.BigEndian.Uint32(b[16:])
	return nil
}

// Packet-In reasons.
const (
	ReasonNoMatch uint8 = 0 // table miss
	ReasonAction  uint8 = 1 // explicit output to controller
)

// PacketIn punts a packet to the controller. Match carries at least the
// ingress port and, for packets arriving over Scotch tunnels, the tunnel id.
type PacketIn struct {
	BufferID uint32
	TotalLen uint16
	Reason   uint8
	TableID  uint8
	Cookie   uint64
	Match    Match
	Data     []byte
}

// matchSizeUB over-estimates a marshaled ofp_match: the OXM TLVs this
// simulator emits (port, tunnel id, ethertype, IPs, proto, L4 ports,
// MPLS label) total well under this, padding included.
const matchSizeUB = 96

// Type implements Message.
func (*PacketIn) Type() MsgType          { return TypePacketIn }
func (m *PacketIn) marshalSizeHint() int { return 18 + matchSizeUB + len(m.Data) }
func (m *PacketIn) marshalBody(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint16(b, m.TotalLen)
	b = append(b, m.Reason, m.TableID)
	b = binary.BigEndian.AppendUint64(b, m.Cookie)
	b = m.Match.Marshal(b)
	b = append(b, 0, 0)
	return append(b, m.Data...), nil
}
func (m *PacketIn) unmarshalBody(b []byte) error {
	if len(b) < 16 {
		return fmt.Errorf("openflow: packet-in truncated")
	}
	m.BufferID = binary.BigEndian.Uint32(b)
	m.TotalLen = binary.BigEndian.Uint16(b[4:])
	m.Reason = b[6]
	m.TableID = b[7]
	m.Cookie = binary.BigEndian.Uint64(b[8:])
	rest, err := m.Match.Unmarshal(b[16:])
	if err != nil {
		return err
	}
	if len(rest) < 2 {
		return fmt.Errorf("openflow: packet-in pad truncated")
	}
	// Alias rather than copy: the wire buffer's only consumer is this
	// decode, so Data borrowing it is safe and saves a copy per punt.
	m.Data = rest[2:]
	return nil
}

// PacketOut injects a packet from the controller into a switch pipeline.
type PacketOut struct {
	BufferID uint32
	InPort   uint32
	Actions  []Action
	Data     []byte
}

// Type implements Message.
func (*PacketOut) Type() MsgType          { return TypePacketOut }
func (m *PacketOut) marshalSizeHint() int { return 16 + 16*len(m.Actions) + len(m.Data) }
func (m *PacketOut) marshalBody(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint32(b, m.InPort)
	lenAt := len(b)
	b = binary.BigEndian.AppendUint16(b, 0) // actions_len placeholder
	b = append(b, 0, 0, 0, 0, 0, 0)
	actStart := len(b)
	b, err := marshalActions(b, m.Actions)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(b[lenAt:], uint16(len(b)-actStart))
	return append(b, m.Data...), nil
}
func (m *PacketOut) unmarshalBody(b []byte) error {
	if len(b) < 16 {
		return fmt.Errorf("openflow: packet-out truncated")
	}
	m.BufferID = binary.BigEndian.Uint32(b)
	m.InPort = binary.BigEndian.Uint32(b[4:])
	alen := int(binary.BigEndian.Uint16(b[8:]))
	if len(b) < 16+alen {
		return fmt.Errorf("openflow: packet-out actions truncated")
	}
	actions, err := unmarshalActions(b[16 : 16+alen])
	if err != nil {
		return err
	}
	m.Actions = actions
	m.Data = b[16+alen:] // alias: the wire buffer is dead after decode
	return nil
}

// FlowMod commands (OFPFC_*).
const (
	FlowAdd          uint8 = 0
	FlowModify       uint8 = 1
	FlowDelete       uint8 = 3
	FlowDeleteStrict uint8 = 4
)

// FlowMod flags.
const (
	FlagSendFlowRem uint16 = 1 // OFPFF_SEND_FLOW_REM
)

// FlowMod installs, modifies, or removes flow entries.
type FlowMod struct {
	Cookie       uint64
	CookieMask   uint64
	TableID      uint8
	Command      uint8
	IdleTimeout  uint16 // seconds
	HardTimeout  uint16 // seconds
	Priority     uint16
	BufferID     uint32
	OutPort      uint32
	OutGroup     uint32
	Flags        uint16
	Match        Match
	Instructions []Instruction
}

// Type implements Message.
func (*FlowMod) Type() MsgType          { return TypeFlowMod }
func (m *FlowMod) marshalSizeHint() int { return 40 + matchSizeUB + 32*len(m.Instructions) + 64 }
func (m *FlowMod) marshalBody(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint64(b, m.Cookie)
	b = binary.BigEndian.AppendUint64(b, m.CookieMask)
	b = append(b, m.TableID, m.Command)
	b = binary.BigEndian.AppendUint16(b, m.IdleTimeout)
	b = binary.BigEndian.AppendUint16(b, m.HardTimeout)
	b = binary.BigEndian.AppendUint16(b, m.Priority)
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint32(b, m.OutPort)
	b = binary.BigEndian.AppendUint32(b, m.OutGroup)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	b = append(b, 0, 0)
	b = m.Match.Marshal(b)
	return marshalInstructions(b, m.Instructions)
}
func (m *FlowMod) unmarshalBody(b []byte) error {
	if len(b) < 40 {
		return fmt.Errorf("openflow: flow-mod truncated")
	}
	m.Cookie = binary.BigEndian.Uint64(b)
	m.CookieMask = binary.BigEndian.Uint64(b[8:])
	m.TableID = b[16]
	m.Command = b[17]
	m.IdleTimeout = binary.BigEndian.Uint16(b[18:])
	m.HardTimeout = binary.BigEndian.Uint16(b[20:])
	m.Priority = binary.BigEndian.Uint16(b[22:])
	m.BufferID = binary.BigEndian.Uint32(b[24:])
	m.OutPort = binary.BigEndian.Uint32(b[28:])
	m.OutGroup = binary.BigEndian.Uint32(b[32:])
	m.Flags = binary.BigEndian.Uint16(b[36:])
	rest, err := m.Match.Unmarshal(b[40:])
	if err != nil {
		return err
	}
	ins, err := unmarshalInstructions(rest)
	if err != nil {
		return err
	}
	m.Instructions = ins
	return nil
}

// Flow-removed reasons (OFPRR_*).
const (
	RemovedIdleTimeout uint8 = 0
	RemovedHardTimeout uint8 = 1
	RemovedDelete      uint8 = 2
)

// FlowRemoved notifies the controller that a flow entry expired or was
// deleted.
type FlowRemoved struct {
	Cookie       uint64
	Priority     uint16
	Reason       uint8
	TableID      uint8
	DurationSec  uint32
	DurationNsec uint32
	IdleTimeout  uint16
	HardTimeout  uint16
	PacketCount  uint64
	ByteCount    uint64
	Match        Match
}

// Type implements Message.
func (*FlowRemoved) Type() MsgType { return TypeFlowRemoved }
func (m *FlowRemoved) marshalBody(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint64(b, m.Cookie)
	b = binary.BigEndian.AppendUint16(b, m.Priority)
	b = append(b, m.Reason, m.TableID)
	b = binary.BigEndian.AppendUint32(b, m.DurationSec)
	b = binary.BigEndian.AppendUint32(b, m.DurationNsec)
	b = binary.BigEndian.AppendUint16(b, m.IdleTimeout)
	b = binary.BigEndian.AppendUint16(b, m.HardTimeout)
	b = binary.BigEndian.AppendUint64(b, m.PacketCount)
	b = binary.BigEndian.AppendUint64(b, m.ByteCount)
	return m.Match.Marshal(b), nil
}
func (m *FlowRemoved) unmarshalBody(b []byte) error {
	if len(b) < 40 {
		return fmt.Errorf("openflow: flow-removed truncated")
	}
	m.Cookie = binary.BigEndian.Uint64(b)
	m.Priority = binary.BigEndian.Uint16(b[8:])
	m.Reason = b[10]
	m.TableID = b[11]
	m.DurationSec = binary.BigEndian.Uint32(b[12:])
	m.DurationNsec = binary.BigEndian.Uint32(b[16:])
	m.IdleTimeout = binary.BigEndian.Uint16(b[20:])
	m.HardTimeout = binary.BigEndian.Uint16(b[22:])
	m.PacketCount = binary.BigEndian.Uint64(b[24:])
	m.ByteCount = binary.BigEndian.Uint64(b[32:])
	_, err := m.Match.Unmarshal(b[40:])
	return err
}

// Group commands and types (OFPGC_*, OFPGT_*).
const (
	GroupAdd    uint16 = 0
	GroupModify uint16 = 1
	GroupDelete uint16 = 2

	GroupTypeAll    uint8 = 0
	GroupTypeSelect uint8 = 1
)

// Bucket is one alternative action set within a group.
type Bucket struct {
	Weight     uint16
	WatchPort  uint32
	WatchGroup uint32
	Actions    []Action
}

// GroupMod installs or modifies a group. Scotch uses a select group whose
// buckets each tunnel to one mesh vSwitch (paper §5.1).
type GroupMod struct {
	Command   uint16
	GroupType uint8
	GroupID   uint32
	Buckets   []Bucket
}

// Type implements Message.
func (*GroupMod) Type() MsgType { return TypeGroupMod }
func (m *GroupMod) marshalBody(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, m.Command)
	b = append(b, m.GroupType, 0)
	b = binary.BigEndian.AppendUint32(b, m.GroupID)
	for i := range m.Buckets {
		bk := &m.Buckets[i]
		start := len(b)
		b = binary.BigEndian.AppendUint16(b, 0) // bucket len placeholder
		b = binary.BigEndian.AppendUint16(b, bk.Weight)
		b = binary.BigEndian.AppendUint32(b, bk.WatchPort)
		b = binary.BigEndian.AppendUint32(b, bk.WatchGroup)
		b = append(b, 0, 0, 0, 0)
		var err error
		if b, err = marshalActions(b, bk.Actions); err != nil {
			return nil, err
		}
		binary.BigEndian.PutUint16(b[start:], uint16(len(b)-start))
	}
	return b, nil
}
func (m *GroupMod) unmarshalBody(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("openflow: group-mod truncated")
	}
	m.Command = binary.BigEndian.Uint16(b)
	m.GroupType = b[2]
	m.GroupID = binary.BigEndian.Uint32(b[4:])
	b = b[8:]
	m.Buckets = nil
	for len(b) > 0 {
		if len(b) < 16 {
			return fmt.Errorf("openflow: bucket truncated")
		}
		blen := int(binary.BigEndian.Uint16(b))
		if blen < 16 || blen > len(b) {
			return fmt.Errorf("openflow: bad bucket length %d", blen)
		}
		var bk Bucket
		bk.Weight = binary.BigEndian.Uint16(b[2:])
		bk.WatchPort = binary.BigEndian.Uint32(b[4:])
		bk.WatchGroup = binary.BigEndian.Uint32(b[8:])
		actions, err := unmarshalActions(b[16:blen])
		if err != nil {
			return err
		}
		bk.Actions = actions
		m.Buckets = append(m.Buckets, bk)
		b = b[blen:]
	}
	return nil
}

// Multipart types (OFPMP_*).
const (
	MultipartFlow uint16 = 1
)

// FlowStatsRequest selects flow entries whose statistics are wanted.
type FlowStatsRequest struct {
	TableID    uint8
	OutPort    uint32
	OutGroup   uint32
	Cookie     uint64
	CookieMask uint64
	Match      Match
}

// MultipartRequest wraps a stats request; only flow stats are supported.
type MultipartRequest struct {
	MPType uint16
	Flow   *FlowStatsRequest
}

// Type implements Message.
func (*MultipartRequest) Type() MsgType { return TypeMultipartRequest }
func (m *MultipartRequest) marshalBody(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, m.MPType)
	b = binary.BigEndian.AppendUint16(b, 0) // flags
	b = append(b, 0, 0, 0, 0)
	if m.MPType != MultipartFlow || m.Flow == nil {
		return nil, fmt.Errorf("openflow: unsupported multipart request type %d", m.MPType)
	}
	f := m.Flow
	b = append(b, f.TableID, 0, 0, 0)
	b = binary.BigEndian.AppendUint32(b, f.OutPort)
	b = binary.BigEndian.AppendUint32(b, f.OutGroup)
	b = append(b, 0, 0, 0, 0)
	b = binary.BigEndian.AppendUint64(b, f.Cookie)
	b = binary.BigEndian.AppendUint64(b, f.CookieMask)
	return f.Match.Marshal(b), nil
}
func (m *MultipartRequest) unmarshalBody(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("openflow: multipart request truncated")
	}
	m.MPType = binary.BigEndian.Uint16(b)
	if m.MPType != MultipartFlow {
		return fmt.Errorf("openflow: unsupported multipart request type %d", m.MPType)
	}
	b = b[8:]
	if len(b) < 32 {
		return fmt.Errorf("openflow: flow stats request truncated")
	}
	f := &FlowStatsRequest{}
	f.TableID = b[0]
	f.OutPort = binary.BigEndian.Uint32(b[4:])
	f.OutGroup = binary.BigEndian.Uint32(b[8:])
	f.Cookie = binary.BigEndian.Uint64(b[16:])
	f.CookieMask = binary.BigEndian.Uint64(b[24:])
	if _, err := f.Match.Unmarshal(b[32:]); err != nil {
		return err
	}
	m.Flow = f
	return nil
}

// FlowStats is one flow entry's statistics.
type FlowStats struct {
	TableID      uint8
	DurationSec  uint32
	DurationNsec uint32
	Priority     uint16
	IdleTimeout  uint16
	HardTimeout  uint16
	Cookie       uint64
	PacketCount  uint64
	ByteCount    uint64
	Match        Match
}

// MultipartReply carries flow statistics entries. More indicates that
// further reply parts with the same transaction id follow
// (OFPMPF_REPLY_MORE); switches chunk large tables across parts.
type MultipartReply struct {
	MPType uint16
	More   bool
	Flows  []FlowStats
}

// Type implements Message.
func (*MultipartReply) Type() MsgType          { return TypeMultipartReply }
func (m *MultipartReply) marshalSizeHint() int { return 8 + len(m.Flows)*(48+matchSizeUB) }
func (m *MultipartReply) marshalBody(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, m.MPType)
	var flags uint16
	if m.More {
		flags = 1 // OFPMPF_REPLY_MORE
	}
	b = binary.BigEndian.AppendUint16(b, flags)
	b = append(b, 0, 0, 0, 0)
	if m.MPType != MultipartFlow {
		return nil, fmt.Errorf("openflow: unsupported multipart reply type %d", m.MPType)
	}
	for i := range m.Flows {
		f := &m.Flows[i]
		start := len(b)
		b = binary.BigEndian.AppendUint16(b, 0) // entry length placeholder
		b = append(b, f.TableID, 0)
		b = binary.BigEndian.AppendUint32(b, f.DurationSec)
		b = binary.BigEndian.AppendUint32(b, f.DurationNsec)
		b = binary.BigEndian.AppendUint16(b, f.Priority)
		b = binary.BigEndian.AppendUint16(b, f.IdleTimeout)
		b = binary.BigEndian.AppendUint16(b, f.HardTimeout)
		b = append(b, 0, 0, 0, 0, 0, 0)
		b = binary.BigEndian.AppendUint64(b, f.Cookie)
		b = binary.BigEndian.AppendUint64(b, f.PacketCount)
		b = binary.BigEndian.AppendUint64(b, f.ByteCount)
		b = f.Match.Marshal(b)
		binary.BigEndian.PutUint16(b[start:], uint16(len(b)-start))
	}
	return b, nil
}
func (m *MultipartReply) unmarshalBody(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("openflow: multipart reply truncated")
	}
	m.MPType = binary.BigEndian.Uint16(b)
	if m.MPType != MultipartFlow {
		return fmt.Errorf("openflow: unsupported multipart reply type %d", m.MPType)
	}
	m.More = binary.BigEndian.Uint16(b[2:])&1 != 0
	b = b[8:]
	m.Flows = nil
	for len(b) > 0 {
		if len(b) < 48 {
			return fmt.Errorf("openflow: flow stats entry truncated")
		}
		elen := int(binary.BigEndian.Uint16(b))
		if elen < 48 || elen > len(b) {
			return fmt.Errorf("openflow: bad flow stats length %d", elen)
		}
		var f FlowStats
		f.TableID = b[2]
		f.DurationSec = binary.BigEndian.Uint32(b[4:])
		f.DurationNsec = binary.BigEndian.Uint32(b[8:])
		f.Priority = binary.BigEndian.Uint16(b[12:])
		f.IdleTimeout = binary.BigEndian.Uint16(b[14:])
		f.HardTimeout = binary.BigEndian.Uint16(b[16:])
		f.Cookie = binary.BigEndian.Uint64(b[24:])
		f.PacketCount = binary.BigEndian.Uint64(b[32:])
		f.ByteCount = binary.BigEndian.Uint64(b[40:])
		if _, err := f.Match.Unmarshal(b[48:elen]); err != nil {
			return err
		}
		m.Flows = append(m.Flows, f)
		b = b[elen:]
	}
	return nil
}

// Error codes used by the simulated switches.
const (
	ErrTypeBadRequest     uint16 = 1
	ErrCodeIsSlave        uint16 = 10 // OFPBRC_IS_SLAVE: write from a slave connection
	ErrTypeFlowModFailed  uint16 = 5
	ErrCodeTableFull      uint16 = 1
	ErrTypeGroupModFailed uint16 = 6
	// OFPET_ROLE_REQUEST_FAILED: the generation id of a master/slave claim
	// was older than the newest the switch has seen (fenced-off controller).
	ErrTypeRoleRequestFailed uint16 = 11
	ErrCodeRoleStale         uint16 = 0
)

// Error reports a failed request back to the controller.
type Error struct {
	ErrType uint16
	Code    uint16
	Data    []byte // prefix of the offending message
}

// Type implements Message.
func (*Error) Type() MsgType { return TypeError }
func (m *Error) marshalBody(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, m.ErrType)
	b = binary.BigEndian.AppendUint16(b, m.Code)
	return append(b, m.Data...), nil
}
func (m *Error) unmarshalBody(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("openflow: error message truncated")
	}
	m.ErrType = binary.BigEndian.Uint16(b)
	m.Code = binary.BigEndian.Uint16(b[2:])
	m.Data = append([]byte(nil), b[4:]...)
	return nil
}

// Error implements the error interface so switch errors can be returned
// directly.
func (m *Error) Error() string {
	return fmt.Sprintf("openflow: error type=%d code=%d", m.ErrType, m.Code)
}

// BarrierRequest asks the switch to finish all preceding messages before
// answering; the controller uses it to order rule installation across
// switches during elephant-flow migration.
type BarrierRequest struct{}

// Type implements Message.
func (*BarrierRequest) Type() MsgType                        { return TypeBarrierRequest }
func (*BarrierRequest) marshalBody(b []byte) ([]byte, error) { return b, nil }
func (*BarrierRequest) unmarshalBody([]byte) error           { return nil }

// BarrierReply answers a BarrierRequest.
type BarrierReply struct{}

// Type implements Message.
func (*BarrierReply) Type() MsgType                        { return TypeBarrierReply }
func (*BarrierReply) marshalBody(b []byte) ([]byte, error) { return b, nil }
func (*BarrierReply) unmarshalBody([]byte) error           { return nil }
