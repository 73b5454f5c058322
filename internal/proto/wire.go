// Binary wire encodings for every protocol message, registered under
// stable explicit type IDs (see init). The IDs appear on the wire, so
// they are append-only: never renumber or reuse one, even for a
// removed message. Field order in AppendWire/DecodeWire pairs is the
// schema — both directions must match exactly, and the differential
// fuzzer (FuzzCodecRoundTrip) holds every type to gob-equivalent round
// trips.
package proto

import (
	"sort"

	"legion/internal/attr"
	"legion/internal/loid"
	"legion/internal/opr"
	"legion/internal/orb"
	"legion/internal/wire"
)

// Stable wire type IDs. Append-only.
const (
	wireMakeReservationArgs = orb.WireIDFirst + iota
	wireMakeReservationReply
	wireTokenArgs
	wireStartObjectArgs
	wireStartObjectReply
	wireObjectArgs
	wireDeactivateReply
	wireCompatibleVaultsReply
	wireVaultOKArgs
	wireBoolReply
	wireAttributesReply
	wireDefineTriggerArgs
	wireRegisterOutcallArgs
	wireNotifyArgs
	wireStoreOPRArgs
	wireRetrieveOPRArgs
	wireRetrieveOPRReply
	wireDeleteOPRArgs
	wireJoinArgs
	wireLeaveArgs
	wireUpdateArgs
	wireQueryArgs
	wireQueryReply
	wireCollectionRecord
	wireBatchEntry
	wireBatchUpdateArgs
	wireBatchUpdateReply
	wireCreateInstanceArgs
	wireCreateInstanceReply
	wireImplementationsReply
	wireInstancesReply
	wirePlacement
	wireImplementation
	wireMakeReservationsArgs
	wireFeedbackReply
	wireEnactScheduleArgs
	wireEnactReply
	wireCancelReservationsArgs
	wireAck
	wireServicesReply
	wireAccountArgs
	wireAccountDepositArgs
	wireAccountReply
)

func init() {
	orb.RegisterWireMessage[MakeReservationArgs, *MakeReservationArgs](wireMakeReservationArgs)
	orb.RegisterWireMessage[MakeReservationReply, *MakeReservationReply](wireMakeReservationReply)
	orb.RegisterWireMessage[TokenArgs, *TokenArgs](wireTokenArgs)
	orb.RegisterWireMessage[StartObjectArgs, *StartObjectArgs](wireStartObjectArgs)
	orb.RegisterWireMessage[StartObjectReply, *StartObjectReply](wireStartObjectReply)
	orb.RegisterWireMessage[ObjectArgs, *ObjectArgs](wireObjectArgs)
	orb.RegisterWireMessage[DeactivateReply, *DeactivateReply](wireDeactivateReply)
	orb.RegisterWireMessage[CompatibleVaultsReply, *CompatibleVaultsReply](wireCompatibleVaultsReply)
	orb.RegisterWireMessage[VaultOKArgs, *VaultOKArgs](wireVaultOKArgs)
	orb.RegisterWireMessage[BoolReply, *BoolReply](wireBoolReply)
	orb.RegisterWireMessage[AttributesReply, *AttributesReply](wireAttributesReply)
	orb.RegisterWireMessage[DefineTriggerArgs, *DefineTriggerArgs](wireDefineTriggerArgs)
	orb.RegisterWireMessage[RegisterOutcallArgs, *RegisterOutcallArgs](wireRegisterOutcallArgs)
	orb.RegisterWireMessage[NotifyArgs, *NotifyArgs](wireNotifyArgs)
	orb.RegisterWireMessage[StoreOPRArgs, *StoreOPRArgs](wireStoreOPRArgs)
	orb.RegisterWireMessage[RetrieveOPRArgs, *RetrieveOPRArgs](wireRetrieveOPRArgs)
	orb.RegisterWireMessage[RetrieveOPRReply, *RetrieveOPRReply](wireRetrieveOPRReply)
	orb.RegisterWireMessage[DeleteOPRArgs, *DeleteOPRArgs](wireDeleteOPRArgs)
	orb.RegisterWireMessage[JoinArgs, *JoinArgs](wireJoinArgs)
	orb.RegisterWireMessage[LeaveArgs, *LeaveArgs](wireLeaveArgs)
	orb.RegisterWireMessage[UpdateArgs, *UpdateArgs](wireUpdateArgs)
	orb.RegisterWireMessage[QueryArgs, *QueryArgs](wireQueryArgs)
	orb.RegisterWireMessage[QueryReply, *QueryReply](wireQueryReply)
	orb.RegisterWireMessage[CollectionRecord, *CollectionRecord](wireCollectionRecord)
	orb.RegisterWireMessage[BatchEntry, *BatchEntry](wireBatchEntry)
	orb.RegisterWireMessage[BatchUpdateArgs, *BatchUpdateArgs](wireBatchUpdateArgs)
	orb.RegisterWireMessage[BatchUpdateReply, *BatchUpdateReply](wireBatchUpdateReply)
	orb.RegisterWireMessage[CreateInstanceArgs, *CreateInstanceArgs](wireCreateInstanceArgs)
	orb.RegisterWireMessage[CreateInstanceReply, *CreateInstanceReply](wireCreateInstanceReply)
	orb.RegisterWireMessage[ImplementationsReply, *ImplementationsReply](wireImplementationsReply)
	orb.RegisterWireMessage[InstancesReply, *InstancesReply](wireInstancesReply)
	orb.RegisterWireMessage[Placement, *Placement](wirePlacement)
	orb.RegisterWireMessage[Implementation, *Implementation](wireImplementation)
	orb.RegisterWireMessage[MakeReservationsArgs, *MakeReservationsArgs](wireMakeReservationsArgs)
	orb.RegisterWireMessage[FeedbackReply, *FeedbackReply](wireFeedbackReply)
	orb.RegisterWireMessage[EnactScheduleArgs, *EnactScheduleArgs](wireEnactScheduleArgs)
	orb.RegisterWireMessage[EnactReply, *EnactReply](wireEnactReply)
	orb.RegisterWireMessage[CancelReservationsArgs, *CancelReservationsArgs](wireCancelReservationsArgs)
	orb.RegisterWireMessage[Ack, *Ack](wireAck)
	orb.RegisterWireMessage[ServicesReply, *ServicesReply](wireServicesReply)
	orb.RegisterWireMessage[AccountArgs, *AccountArgs](wireAccountArgs)
	orb.RegisterWireMessage[AccountDepositArgs, *AccountDepositArgs](wireAccountDepositArgs)
	orb.RegisterWireMessage[AccountReply, *AccountReply](wireAccountReply)
}

// --- Host messages ---

// AppendWire implements orb.WireMessage.
func (m *MakeReservationArgs) AppendWire(b []byte) []byte {
	b = m.Requester.AppendWire(b)
	b = m.Vault.AppendWire(b)
	b = m.Type.AppendWire(b)
	b = wire.AppendTime(b, m.Start)
	b = wire.AppendDuration(b, m.Duration)
	b = wire.AppendDuration(b, m.Timeout)
	b = wire.AppendVarint(b, int64(m.Priority))
	return wire.AppendString(b, m.Tenant)
}

// DecodeWire implements orb.WireMessage.
func (m *MakeReservationArgs) DecodeWire(r *wire.Reader) {
	m.Requester.DecodeWire(r)
	m.Vault.DecodeWire(r)
	m.Type.DecodeWire(r)
	m.Start = r.Time()
	m.Duration = r.Duration()
	m.Timeout = r.Duration()
	m.Priority = int(r.Varint())
	m.Tenant = r.Sym()
}

// AppendWire implements orb.WireMessage.
func (m *MakeReservationReply) AppendWire(b []byte) []byte {
	b = m.Token.AppendWire(b)
	return wire.AppendFloat64(b, m.Cost)
}

// DecodeWire implements orb.WireMessage.
func (m *MakeReservationReply) DecodeWire(r *wire.Reader) {
	m.Token.DecodeWire(r)
	m.Cost = r.Float64()
}

// AppendWire implements orb.WireMessage.
func (m *AccountArgs) AppendWire(b []byte) []byte {
	return wire.AppendString(b, m.Tenant)
}

// DecodeWire implements orb.WireMessage.
func (m *AccountArgs) DecodeWire(r *wire.Reader) {
	m.Tenant = r.Sym()
}

// AppendWire implements orb.WireMessage.
func (m *AccountDepositArgs) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.Tenant)
	return wire.AppendVarint(b, m.Amount)
}

// DecodeWire implements orb.WireMessage.
func (m *AccountDepositArgs) DecodeWire(r *wire.Reader) {
	m.Tenant = r.Sym()
	m.Amount = r.Varint()
}

// AppendWire implements orb.WireMessage.
func (m *AccountReply) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.Tenant)
	b = wire.AppendVarint(b, m.Budget)
	b = wire.AppendVarint(b, m.Spent)
	b = wire.AppendVarint(b, m.Refunded)
	return wire.AppendVarint(b, m.Remaining)
}

// DecodeWire implements orb.WireMessage.
func (m *AccountReply) DecodeWire(r *wire.Reader) {
	m.Tenant = r.Sym()
	m.Budget = r.Varint()
	m.Spent = r.Varint()
	m.Refunded = r.Varint()
	m.Remaining = r.Varint()
}

// AppendWire implements orb.WireMessage.
func (m *TokenArgs) AppendWire(b []byte) []byte {
	return m.Token.AppendWire(b)
}

// DecodeWire implements orb.WireMessage.
func (m *TokenArgs) DecodeWire(r *wire.Reader) {
	m.Token.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m *StartObjectArgs) AppendWire(b []byte) []byte {
	b = m.Token.AppendWire(b)
	b = m.Class.AppendWire(b)
	b = loid.AppendWireSlice(b, m.Instances)
	return opr.AppendWirePtr(b, m.State)
}

// DecodeWire implements orb.WireMessage.
func (m *StartObjectArgs) DecodeWire(r *wire.Reader) {
	m.Token.DecodeWire(r)
	m.Class.DecodeWire(r)
	m.Instances = loid.DecodeWireSlice(r, m.Instances)
	m.State = opr.DecodeWirePtr(r, m.State)
}

// AppendWire implements orb.WireMessage.
func (m *StartObjectReply) AppendWire(b []byte) []byte {
	return loid.AppendWireSlice(b, m.Started)
}

// DecodeWire implements orb.WireMessage.
func (m *StartObjectReply) DecodeWire(r *wire.Reader) {
	m.Started = loid.DecodeWireSlice(r, m.Started)
}

// AppendWire implements orb.WireMessage.
func (m *ObjectArgs) AppendWire(b []byte) []byte {
	return m.Object.AppendWire(b)
}

// DecodeWire implements orb.WireMessage.
func (m *ObjectArgs) DecodeWire(r *wire.Reader) {
	m.Object.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m *DeactivateReply) AppendWire(b []byte) []byte {
	b = opr.AppendWirePtr(b, m.OPR)
	return m.Vault.AppendWire(b)
}

// DecodeWire implements orb.WireMessage.
func (m *DeactivateReply) DecodeWire(r *wire.Reader) {
	m.OPR = opr.DecodeWirePtr(r, m.OPR)
	m.Vault.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m *CompatibleVaultsReply) AppendWire(b []byte) []byte {
	return loid.AppendWireSlice(b, m.Vaults)
}

// DecodeWire implements orb.WireMessage.
func (m *CompatibleVaultsReply) DecodeWire(r *wire.Reader) {
	m.Vaults = loid.DecodeWireSlice(r, m.Vaults)
}

// AppendWire implements orb.WireMessage.
func (m *VaultOKArgs) AppendWire(b []byte) []byte {
	b = m.Vault.AppendWire(b)
	return wire.AppendString(b, m.Zone)
}

// DecodeWire implements orb.WireMessage.
func (m *VaultOKArgs) DecodeWire(r *wire.Reader) {
	m.Vault.DecodeWire(r)
	m.Zone = r.Sym()
}

// AppendWire implements orb.WireMessage.
func (m *BoolReply) AppendWire(b []byte) []byte {
	return wire.AppendBool(b, m.OK)
}

// DecodeWire implements orb.WireMessage.
func (m *BoolReply) DecodeWire(r *wire.Reader) {
	m.OK = r.Bool()
}

// AppendWire implements orb.WireMessage.
func (m *AttributesReply) AppendWire(b []byte) []byte {
	return attr.AppendWirePairs(b, m.Attrs)
}

// DecodeWire implements orb.WireMessage.
func (m *AttributesReply) DecodeWire(r *wire.Reader) {
	m.Attrs = attr.DecodeWirePairs(r, m.Attrs)
}

// AppendWire implements orb.WireMessage.
func (m *DefineTriggerArgs) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.Name)
	return wire.AppendString(b, m.Guard)
}

// DecodeWire implements orb.WireMessage.
func (m *DefineTriggerArgs) DecodeWire(r *wire.Reader) {
	m.Name = r.Sym()
	m.Guard = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m *RegisterOutcallArgs) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.Trigger)
	return m.Monitor.AppendWire(b)
}

// DecodeWire implements orb.WireMessage.
func (m *RegisterOutcallArgs) DecodeWire(r *wire.Reader) {
	m.Trigger = r.Sym()
	m.Monitor.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m *NotifyArgs) AppendWire(b []byte) []byte {
	b = m.Source.AppendWire(b)
	b = wire.AppendString(b, m.Trigger)
	b = attr.AppendWirePairs(b, m.Attrs)
	return wire.AppendTime(b, m.Time)
}

// DecodeWire implements orb.WireMessage.
func (m *NotifyArgs) DecodeWire(r *wire.Reader) {
	m.Source.DecodeWire(r)
	m.Trigger = r.Sym()
	m.Attrs = attr.DecodeWirePairs(r, m.Attrs)
	m.Time = r.Time()
}

// --- Vault messages ---

// AppendWire implements orb.WireMessage.
func (m *StoreOPRArgs) AppendWire(b []byte) []byte {
	return opr.AppendWirePtr(b, m.OPR)
}

// DecodeWire implements orb.WireMessage.
func (m *StoreOPRArgs) DecodeWire(r *wire.Reader) {
	m.OPR = opr.DecodeWirePtr(r, m.OPR)
}

// AppendWire implements orb.WireMessage.
func (m *RetrieveOPRArgs) AppendWire(b []byte) []byte {
	return m.Object.AppendWire(b)
}

// DecodeWire implements orb.WireMessage.
func (m *RetrieveOPRArgs) DecodeWire(r *wire.Reader) {
	m.Object.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m *RetrieveOPRReply) AppendWire(b []byte) []byte {
	return opr.AppendWirePtr(b, m.OPR)
}

// DecodeWire implements orb.WireMessage.
func (m *RetrieveOPRReply) DecodeWire(r *wire.Reader) {
	m.OPR = opr.DecodeWirePtr(r, m.OPR)
}

// AppendWire implements orb.WireMessage.
func (m *DeleteOPRArgs) AppendWire(b []byte) []byte {
	return m.Object.AppendWire(b)
}

// DecodeWire implements orb.WireMessage.
func (m *DeleteOPRArgs) DecodeWire(r *wire.Reader) {
	m.Object.DecodeWire(r)
}

// --- Collection messages ---

// AppendWire implements orb.WireMessage.
func (m *JoinArgs) AppendWire(b []byte) []byte {
	b = m.Joiner.AppendWire(b)
	b = attr.AppendWirePairs(b, m.Attrs)
	return wire.AppendString(b, m.Credential)
}

// DecodeWire implements orb.WireMessage.
func (m *JoinArgs) DecodeWire(r *wire.Reader) {
	m.Joiner.DecodeWire(r)
	m.Attrs = attr.DecodeWirePairs(r, m.Attrs)
	m.Credential = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m *LeaveArgs) AppendWire(b []byte) []byte {
	b = m.Leaver.AppendWire(b)
	return wire.AppendString(b, m.Credential)
}

// DecodeWire implements orb.WireMessage.
func (m *LeaveArgs) DecodeWire(r *wire.Reader) {
	m.Leaver.DecodeWire(r)
	m.Credential = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m *UpdateArgs) AppendWire(b []byte) []byte {
	b = m.Member.AppendWire(b)
	b = attr.AppendWirePairs(b, m.Attrs)
	return wire.AppendString(b, m.Credential)
}

// DecodeWire implements orb.WireMessage.
func (m *UpdateArgs) DecodeWire(r *wire.Reader) {
	m.Member.DecodeWire(r)
	m.Attrs = attr.DecodeWirePairs(r, m.Attrs)
	m.Credential = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m *BatchEntry) AppendWire(b []byte) []byte {
	b = m.Member.AppendWire(b)
	b = attr.AppendWirePairs(b, m.Attrs)
	return wire.AppendBool(b, m.UpdateOnly)
}

// DecodeWire implements orb.WireMessage.
func (m *BatchEntry) DecodeWire(r *wire.Reader) {
	var slab attr.Slab
	m.decodeWire(r, &slab, 1)
}

// decodeWire decodes the entry with its Attrs carved from slab; left
// counts the entries still to decode, this one included.
func (m *BatchEntry) decodeWire(r *wire.Reader, slab *attr.Slab, left int) {
	m.Member.DecodeWire(r)
	m.Attrs = slab.DecodeWirePairs(r, left)
	m.UpdateOnly = r.Bool()
}

// AppendWire implements orb.WireMessage.
func (m *BatchUpdateArgs) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Entries)))
	for i := range m.Entries {
		b = m.Entries[i].AppendWire(b)
	}
	return wire.AppendString(b, m.Credential)
}

// DecodeWire implements orb.WireMessage. Every entry's Attrs is a
// window of one per-message attr.Slab (DESIGN.md §14).
func (m *BatchUpdateArgs) DecodeWire(r *wire.Reader) {
	n := r.Len()
	if n > 0 {
		if cap(m.Entries) >= n {
			m.Entries = m.Entries[:n]
		} else {
			m.Entries = make([]BatchEntry, n)
		}
		var slab attr.Slab
		for i := range m.Entries {
			m.Entries[i].decodeWire(r, &slab, n-i)
		}
	} else {
		m.Entries = nil
	}
	m.Credential = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m *BatchUpdateReply) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(m.Applied))
	return wire.AppendVarint(b, int64(m.Dropped))
}

// DecodeWire implements orb.WireMessage.
func (m *BatchUpdateReply) DecodeWire(r *wire.Reader) {
	m.Applied = int(r.Varint())
	m.Dropped = int(r.Varint())
}

// AppendWire implements orb.WireMessage.
func (m *QueryArgs) AppendWire(b []byte) []byte {
	return wire.AppendString(b, m.Query)
}

// DecodeWire implements orb.WireMessage.
func (m *QueryArgs) DecodeWire(r *wire.Reader) {
	m.Query = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m *CollectionRecord) AppendWire(b []byte) []byte {
	b = m.Member.AppendWire(b)
	b = attr.AppendWirePairs(b, m.Attrs)
	return wire.AppendTime(b, m.UpdatedAt)
}

// DecodeWire implements orb.WireMessage.
func (m *CollectionRecord) DecodeWire(r *wire.Reader) {
	var slab attr.Slab
	m.decodeWire(r, &slab, 1)
}

// decodeWire decodes the record with its Attrs carved from slab; left
// counts the records still to decode, this one included.
func (m *CollectionRecord) decodeWire(r *wire.Reader, slab *attr.Slab, left int) {
	m.Member.DecodeWire(r)
	m.Attrs = slab.DecodeWirePairs(r, left)
	m.UpdatedAt = r.Time()
}

// AppendWire implements orb.WireMessage.
func (m *QueryReply) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Records)))
	for i := range m.Records {
		b = m.Records[i].AppendWire(b)
	}
	return wire.AppendVarint(b, int64(m.SkippedShards))
}

// DecodeWire implements orb.WireMessage. Every record's Attrs is a
// window of one per-reply attr.Slab, so a reply costs a fixed handful
// of allocations whatever its record count (DESIGN.md §14).
func (m *QueryReply) DecodeWire(r *wire.Reader) {
	n := r.Len()
	if n > 0 {
		if cap(m.Records) >= n {
			m.Records = m.Records[:n]
		} else {
			m.Records = make([]CollectionRecord, n)
		}
		var slab attr.Slab
		for i := range m.Records {
			m.Records[i].decodeWire(r, &slab, n-i)
		}
	} else {
		m.Records = nil
	}
	m.SkippedShards = int(r.Varint())
}

// --- Class object messages ---

// AppendWire implements orb.WireMessage.
func (m *Placement) AppendWire(b []byte) []byte {
	b = m.Host.AppendWire(b)
	b = m.Vault.AppendWire(b)
	return m.Token.AppendWire(b)
}

// DecodeWire implements orb.WireMessage.
func (m *Placement) DecodeWire(r *wire.Reader) {
	m.Host.DecodeWire(r)
	m.Vault.DecodeWire(r)
	m.Token.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m *CreateInstanceArgs) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(m.Count))
	if m.Placement == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = m.Placement.AppendWire(b)
	}
	return opr.AppendWirePtr(b, m.State)
}

// DecodeWire implements orb.WireMessage.
func (m *CreateInstanceArgs) DecodeWire(r *wire.Reader) {
	m.Count = int(r.Varint())
	if r.Bool() {
		p := m.Placement
		if p == nil {
			p = new(Placement)
		}
		p.DecodeWire(r)
		m.Placement = p
	} else {
		m.Placement = nil
	}
	m.State = opr.DecodeWirePtr(r, m.State)
}

// AppendWire implements orb.WireMessage.
func (m *CreateInstanceReply) AppendWire(b []byte) []byte {
	b = loid.AppendWireSlice(b, m.Instances)
	b = m.Host.AppendWire(b)
	return m.Vault.AppendWire(b)
}

// DecodeWire implements orb.WireMessage.
func (m *CreateInstanceReply) DecodeWire(r *wire.Reader) {
	m.Instances = loid.DecodeWireSlice(r, m.Instances)
	m.Host.DecodeWire(r)
	m.Vault.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m *Implementation) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.Arch)
	b = wire.AppendString(b, m.OS)
	return wire.AppendVarint(b, int64(m.MemoryMB))
}

// DecodeWire implements orb.WireMessage.
func (m *Implementation) DecodeWire(r *wire.Reader) {
	m.Arch = r.Sym()
	m.OS = r.Sym()
	m.MemoryMB = int(r.Varint())
}

// AppendWire implements orb.WireMessage.
func (m *ImplementationsReply) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Impls)))
	for i := range m.Impls {
		b = m.Impls[i].AppendWire(b)
	}
	return b
}

// DecodeWire implements orb.WireMessage.
func (m *ImplementationsReply) DecodeWire(r *wire.Reader) {
	n := r.Len()
	if n == 0 {
		m.Impls = nil
		return
	}
	if cap(m.Impls) >= n {
		m.Impls = m.Impls[:n]
	} else {
		m.Impls = make([]Implementation, n)
	}
	for i := range m.Impls {
		m.Impls[i].DecodeWire(r)
	}
}

// AppendWire implements orb.WireMessage.
func (m *InstancesReply) AppendWire(b []byte) []byte {
	return loid.AppendWireSlice(b, m.Instances)
}

// DecodeWire implements orb.WireMessage.
func (m *InstancesReply) DecodeWire(r *wire.Reader) {
	m.Instances = loid.DecodeWireSlice(r, m.Instances)
}

// --- Enactor messages ---

// AppendWire implements orb.WireMessage.
func (m *MakeReservationsArgs) AppendWire(b []byte) []byte {
	b = m.Request.AppendWire(b)
	return wire.AppendString(b, m.RequesterDomain)
}

// DecodeWire implements orb.WireMessage.
func (m *MakeReservationsArgs) DecodeWire(r *wire.Reader) {
	m.Request.DecodeWire(r)
	m.RequesterDomain = r.Sym()
}

// AppendWire implements orb.WireMessage.
func (m *FeedbackReply) AppendWire(b []byte) []byte {
	return m.Feedback.AppendWire(b)
}

// DecodeWire implements orb.WireMessage.
func (m *FeedbackReply) DecodeWire(r *wire.Reader) {
	m.Feedback.DecodeWire(r)
}

// AppendWire implements orb.WireMessage.
func (m *EnactScheduleArgs) AppendWire(b []byte) []byte {
	return wire.AppendUvarint(b, m.RequestID)
}

// DecodeWire implements orb.WireMessage.
func (m *EnactScheduleArgs) DecodeWire(r *wire.Reader) {
	m.RequestID = r.Uvarint()
}

// AppendWire implements orb.WireMessage.
func (m *EnactReply) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Instances)))
	for i := range m.Instances {
		b = loid.AppendWireSlice(b, m.Instances[i])
	}
	b = wire.AppendBool(b, m.Success)
	return wire.AppendString(b, m.Detail)
}

// DecodeWire implements orb.WireMessage.
func (m *EnactReply) DecodeWire(r *wire.Reader) {
	n := r.Len()
	if n > 0 {
		if cap(m.Instances) >= n {
			m.Instances = m.Instances[:n]
		} else {
			m.Instances = make([][]loid.LOID, n)
		}
		for i := range m.Instances {
			m.Instances[i] = loid.DecodeWireSlice(r, m.Instances[i])
		}
	} else {
		m.Instances = nil
	}
	m.Success = r.Bool()
	m.Detail = r.Str()
}

// AppendWire implements orb.WireMessage.
func (m *CancelReservationsArgs) AppendWire(b []byte) []byte {
	return wire.AppendUvarint(b, m.RequestID)
}

// DecodeWire implements orb.WireMessage.
func (m *CancelReservationsArgs) DecodeWire(r *wire.Reader) {
	m.RequestID = r.Uvarint()
}

// AppendWire implements orb.WireMessage.
func (m *Ack) AppendWire(b []byte) []byte { return b }

// DecodeWire implements orb.WireMessage.
func (m *Ack) DecodeWire(r *wire.Reader) {}

// AppendWire implements orb.WireMessage. The Classes map is encoded in
// sorted key order so equal maps produce identical bytes (the virtual-
// trace differential depends on deterministic encodings).
func (m *ServicesReply) AppendWire(b []byte) []byte {
	b = m.Collection.AppendWire(b)
	b = m.Enactor.AppendWire(b)
	b = m.Monitor.AppendWire(b)
	b = wire.AppendUvarint(b, uint64(len(m.Classes)))
	if len(m.Classes) > 0 {
		keys := make([]string, 0, len(m.Classes))
		for k := range m.Classes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = wire.AppendString(b, k)
			b = m.Classes[k].AppendWire(b)
		}
	}
	b = loid.AppendWireSlice(b, m.Hosts)
	return loid.AppendWireSlice(b, m.Vaults)
}

// DecodeWire implements orb.WireMessage.
func (m *ServicesReply) DecodeWire(r *wire.Reader) {
	m.Collection.DecodeWire(r)
	m.Enactor.DecodeWire(r)
	m.Monitor.DecodeWire(r)
	n := r.Len()
	if n > 0 {
		m.Classes = make(map[string]loid.LOID, n)
		for i := 0; i < n; i++ {
			k := r.Sym()
			var l loid.LOID
			l.DecodeWire(r)
			if r.Err != nil {
				return
			}
			m.Classes[k] = l
		}
	} else {
		m.Classes = nil
	}
	m.Hosts = loid.DecodeWireSlice(r, m.Hosts)
	m.Vaults = loid.DecodeWireSlice(r, m.Vaults)
}
