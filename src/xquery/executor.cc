#include "xquery/executor.h"

#include "xml/parser.h"
#include "xpath/parser.h"
#include "xquery/parser.h"

namespace xupd::xquery {

using update::Content;
using xpath::Environment;
using xpath::XmlObject;

namespace {

// Context object for relative paths: the first FOR variable in scope
// (Example 3 binds ref(managers,"smith1") relative to $lab).
XmlObject RelativeContext(const std::vector<ForClause>& fors,
                          const Environment& env) {
  if (fors.empty()) return XmlObject::Null();
  auto it = env.find(fors.front().variable);
  return it == env.end() ? XmlObject::Null() : it->second;
}

}  // namespace

Result<std::vector<Environment>> NativeExecutor::BindTuples(
    const std::vector<ForClause>& fors, const std::vector<LetClause>& lets,
    const std::vector<xpath::Predicate>& where, const Environment& outer,
    const XmlObject& context) const {
  xpath::Evaluator eval(doc_);
  std::vector<Environment> tuples{outer};
  for (const ForClause& clause : fors) {
    std::vector<Environment> next;
    for (const Environment& env : tuples) {
      XmlObject rel = RelativeContext(fors, env);
      if (rel.is_null()) rel = context;
      auto objects = eval.Eval(clause.path, env, rel);
      if (!objects.ok()) return objects.status();
      size_t pos = 0;
      for (const XmlObject& obj : *objects) {
        Environment extended = env;
        XmlObject bound = obj;
        bound.binding_index = pos++;
        extended[clause.variable] = bound;
        next.push_back(std::move(extended));
      }
    }
    tuples = std::move(next);
    if (tuples.empty()) break;
  }
  for (const LetClause& clause : lets) {
    for (Environment& env : tuples) {
      XmlObject rel = RelativeContext(fors, env);
      if (rel.is_null()) rel = context;
      auto objects = eval.Eval(clause.path, env, rel);
      if (!objects.ok()) return objects.status();
      env[clause.variable] =
          objects->empty() ? XmlObject::Null() : objects->front();
    }
  }
  if (!where.empty()) {
    std::vector<Environment> filtered;
    for (const Environment& env : tuples) {
      XmlObject rel = RelativeContext(fors, env);
      if (rel.is_null()) rel = context;
      bool keep = true;
      for (const xpath::Predicate& pred : where) {
        auto ok = eval.EvalPredicate(pred, env, rel);
        if (!ok.ok()) return ok.status();
        if (!ok.value()) {
          keep = false;
          break;
        }
      }
      if (keep) filtered.push_back(env);
    }
    tuples = std::move(filtered);
  }
  return tuples;
}

Result<Content> NativeExecutor::ResolveContent(const ContentExpr& expr,
                                               const Environment& env,
                                               const XmlObject& context) const {
  switch (expr.kind) {
    case ContentExpr::Kind::kNone:
      return Status::InvalidArgument("missing content expression");
    case ContentExpr::Kind::kXmlFragment: {
      xml::ParseOptions options;
      options.id_attribute = doc_->id_attribute();
      for (const std::string& r : doc_->ref_attributes()) {
        options.ref_attributes.insert(r);
      }
      auto frag = xml::ParseFragment(expr.text, options);
      if (!frag.ok()) return frag.status();
      return Content::MakeElement(std::move(frag).value());
    }
    case ContentExpr::Kind::kString:
      return Content::MakePcdata(expr.text);
    case ContentExpr::Kind::kNewAttribute:
      return Content::MakeAttribute(expr.name, expr.text);
    case ContentExpr::Kind::kNewRef:
      return Content::MakeReference(expr.name, expr.text);
    case ContentExpr::Kind::kPath: {
      xpath::Evaluator eval(doc_);
      auto objects = eval.Eval(expr.path, env, context);
      if (!objects.ok()) return objects.status();
      if (objects->empty()) {
        return Status::NotFound("content path produced no objects");
      }
      const XmlObject& obj = objects->front();
      switch (obj.kind) {
        case XmlObject::Kind::kElement:
          // Copy semantics (§6.2): the subtree is duplicated.
          return Content::MakeElement(obj.element->Clone());
        case XmlObject::Kind::kAttribute: {
          const xml::Attribute* a = obj.element->FindAttribute(obj.name);
          return Content::MakeAttribute(obj.name, a != nullptr ? a->value : "");
        }
        case XmlObject::Kind::kRefEntry:
          return Content::MakeReference(obj.name, StringValueOf(obj));
        case XmlObject::Kind::kText:
          return Content::MakePcdata(StringValueOf(obj));
        case XmlObject::Kind::kNull:
          return Status::InvalidArgument("null content binding");
      }
      return Status::Internal("unknown content object kind");
    }
  }
  return Status::Internal("unknown content kind");
}

Status NativeExecutor::BindUpdateOp(const UpdateOp& op, const Environment& env,
                                    const XmlObject& context,
                                    std::vector<BoundOp>* out) const {
  xpath::Evaluator eval(doc_);
  auto targets = eval.Eval(op.target, env, context);
  if (!targets.ok()) return targets.status();
  for (const XmlObject& target : *targets) {
    for (const SubOp& sub : op.sub_ops) {
      if (sub.kind == SubOp::Kind::kNestedUpdate) {
        // Bind the nested FOR/WHERE against the input (before any updates),
        // relative to the current UPDATE target.
        auto sub_tuples =
            BindTuples(sub.nested->for_clauses, {}, sub.nested->where, env,
                       target);
        if (!sub_tuples.ok()) return sub_tuples.status();
        for (const Environment& sub_env : *sub_tuples) {
          XUPD_RETURN_IF_ERROR(
              BindUpdateOp(*sub.nested, sub_env, target, out));
        }
        continue;
      }
      BoundOp bound;
      bound.kind = sub.kind;
      bound.position = sub.position;
      bound.target = target;
      bound.rename_to = sub.rename_to;
      // Operand binding.
      if (sub.kind == SubOp::Kind::kDelete ||
          sub.kind == SubOp::Kind::kRename ||
          sub.kind == SubOp::Kind::kReplace ||
          (sub.kind == SubOp::Kind::kInsert &&
           sub.position != SubOp::Position::kAppend)) {
        auto children = eval.Eval(sub.child, env, target);
        if (!children.ok()) return children.status();
        if (children->empty()) {
          return Status::NotFound("operand path '" + ToString(sub.child) +
                                  "' bound no object");
        }
        bound.child = children->front();
      }
      if (sub.kind == SubOp::Kind::kInsert ||
          sub.kind == SubOp::Kind::kReplace) {
        auto content = ResolveContent(sub.content, env, target);
        if (!content.ok()) return content.status();
        bound.content = std::move(content).value();
      }
      out->push_back(std::move(bound));
    }
  }
  return Status::OK();
}

Status NativeExecutor::Execute(const Statement& stmt) {
  if (!stmt.is_update()) {
    return Status::InvalidArgument("statement has no UPDATE clause");
  }
  auto tuples = BindTuples(stmt.for_clauses, stmt.let_clauses, stmt.where, {},
                           XmlObject::Null());
  if (!tuples.ok()) return tuples.status();
  last_tuple_count_ = tuples->size();

  // Bind phase: everything binds against the input document.
  std::vector<BoundOp> plan;
  for (const Environment& env : *tuples) {
    for (const UpdateOp& op : stmt.updates) {
      XUPD_RETURN_IF_ERROR(
          BindUpdateOp(op, env, RelativeContext(stmt.for_clauses, env), &plan));
    }
  }

  // Execute phase.
  update::UpdateExecutor exec(doc_, model_);
  for (const BoundOp& op : plan) {
    switch (op.kind) {
      case SubOp::Kind::kDelete:
        // A binding deleted by an earlier tuple's operation is skipped:
        // several tuples of the FOR/LET product can bind the same node, the
        // update deletes it once, and deleting it again would be a
        // deleted-binding violation.
        if (exec.IsDeleted(op.child)) break;
        XUPD_RETURN_IF_ERROR(exec.Delete(op.child));
        break;
      case SubOp::Kind::kRename:
        XUPD_RETURN_IF_ERROR(exec.Rename(op.child, op.rename_to));
        break;
      case SubOp::Kind::kInsert:
        if (op.position == SubOp::Position::kAppend) {
          XUPD_RETURN_IF_ERROR(exec.Insert(op.target, *op.content));
        } else if (op.position == SubOp::Position::kBefore) {
          XUPD_RETURN_IF_ERROR(exec.InsertBefore(op.child, *op.content));
        } else {
          XUPD_RETURN_IF_ERROR(exec.InsertAfter(op.child, *op.content));
        }
        break;
      case SubOp::Kind::kReplace:
        XUPD_RETURN_IF_ERROR(exec.Replace(op.child, *op.content));
        break;
      case SubOp::Kind::kNestedUpdate:
        return Status::Internal("nested update not flattened");
    }
  }
  doc_->InvalidateIdMap();
  return Status::OK();
}

Status NativeExecutor::ExecuteString(std::string_view query) {
  auto stmt = ParseStatement(query);
  if (!stmt.ok()) return stmt.status();
  return Execute(stmt.value());
}

Result<std::vector<XmlObject>> NativeExecutor::EvalQuery(const Statement& stmt) {
  if (!stmt.return_path.has_value()) {
    return Status::InvalidArgument("statement has no RETURN clause");
  }
  auto tuples = BindTuples(stmt.for_clauses, stmt.let_clauses, stmt.where, {},
                           XmlObject::Null());
  if (!tuples.ok()) return tuples.status();
  xpath::Evaluator eval(doc_);
  std::vector<XmlObject> results;
  for (const Environment& env : *tuples) {
    auto objects = eval.Eval(*stmt.return_path, env,
                             RelativeContext(stmt.for_clauses, env));
    if (!objects.ok()) return objects.status();
    for (const XmlObject& obj : *objects) results.push_back(obj);
  }
  return results;
}

}  // namespace xupd::xquery
